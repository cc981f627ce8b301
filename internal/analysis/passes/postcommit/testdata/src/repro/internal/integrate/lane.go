// Golden testdata for postcommit's rules: no publish/hook under a lock,
// no broker construction outside the wiring.
package integrate

import (
	"sync"
	"sync/atomic"

	"repro/internal/readpath"
)

type Lane struct {
	mu       sync.Mutex
	version  atomic.Int64
	broker   *readpath.Broker
	onCommit func(int)
}

// BadLockedPublish publishes while holding the lane lock.
func (l *Lane) BadLockedPublish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.broker.Publish("x") // want `broker publish inside locked region l\.mu`
}

// BadLockedHook fires the commit hook while holding the lane lock.
func (l *Lane) BadLockedHook() {
	l.mu.Lock()
	l.onCommit(1) // want `commit hook onCommit invoked inside locked region l\.mu`
	l.mu.Unlock()
}

// BadConstruct builds a second broker outside the system wiring.
func (l *Lane) BadConstruct() *readpath.Broker {
	return readpath.NewBroker() // want `readpath\.NewBroker outside the system wiring`
}

// GoodPublish: commit under the lock, bump, unlock, then publish.
func (l *Lane) GoodPublish() {
	l.mu.Lock()
	l.version.Add(1)
	l.mu.Unlock()
	l.broker.Publish("x")
}

// SetHook registers the hook; registration is not invocation.
func (l *Lane) SetHook(fn func(int)) {
	l.onCommit = fn
}
