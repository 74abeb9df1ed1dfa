// Trips lock-order: two functions take the same pair of locks in
// opposite orders — two threads running them concurrently can each
// hold one lock and wait forever for the other.

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

    fn backward(&self) {
        let states = self.states.lock();
        let jobs = self.jobs.lock();
        drop((states, jobs));
    }

    // A bound guard lives to the end of its block: locking `jobs` again
    // while it does blocks forever.
    fn relock(&self) {
        let jobs = self.jobs.lock().expect("jobs");
        let again = self.jobs.lock().expect("jobs");
        drop((jobs, again));
    }
}
