// Package leaktest is test support shared by the engine's packages: a
// goroutine-leak check for tests that start and stop topologies, commit
// pipelines or stores.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check fails t if, once the test has returned and the cleanups it
// registered after the call have run (deferred Closes, t.Cleanup), more
// goroutines are left than there were at the call. The count is given a
// moment to settle, since an exiting goroutine is counted until it is
// gone. Call it first, before anything that starts a goroutine.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines after the test, %d before it:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}
