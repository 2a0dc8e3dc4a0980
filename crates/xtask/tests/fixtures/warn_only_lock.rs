// Known-bad fixture: a serving entry takes a lock with no deadline.
// Must trigger `unbounded_wait` (exactly one finding, the `lock()`) and
// nothing else. Lock sinks were warn-only while `lock_order` existed;
// the file keeps its old name so its findings compare across PR 25.

pub fn submit_with_deadline(&self) -> u64 {
    let guard = self.state.lock();
    *guard
}
