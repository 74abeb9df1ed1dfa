// Passes lock-order: every function that needs both locks takes them
// in the same order (jobs before states), so the aggregated lock-order
// graph is acyclic.

struct Shared {
    jobs: Mutex<Vec<u32>>,
    states: Mutex<Vec<u32>>,
}

impl Shared {
    fn forward(&self) {
        let jobs = self.jobs.lock();
        let states = self.states.lock();
        drop((jobs, states));
    }

    fn drain(&self) {
        let jobs = self.jobs.lock();
        let states = self.states.lock();
        drop((jobs, states));
    }

    // The `let` binds what the guard returned, not the guard: it drops
    // at the `;`, so locking `jobs` again is no re-entry.
    fn take_then_relock(&self) {
        let first = self.jobs.lock().expect("jobs").pop();
        let rest = self.jobs.lock().expect("jobs");
        drop((first, rest));
    }
}
