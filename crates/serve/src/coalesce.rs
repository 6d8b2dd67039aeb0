//! Single-flight request coalescing.
//!
//! When several concurrent requests pose the same not-yet-servable
//! fingerprint, exactly one of them (the *leader*) loads or tunes its
//! plan; the rest (*followers*) [`park`](SingleFlight::park) on the
//! flight and give their worker back. Landing the flight hands every
//! parked job back to the pool at once, with the leader's outcome,
//! before the leader goes on to its own solve. Leadership is only ever
//! assigned to a request that is already executing on a worker, so the
//! flight always lands.
//!
//! `park` finding no flight opens one and makes its caller the leader,
//! in the same critical section, so a parked request never races a
//! flight taking off. [`join`](SingleFlight::join) is the blocking
//! form: its followers wait on the flight, holding their thread.
//!
//! A leader that fails (tuner panic, disk error) completes the flight
//! with `None`; followers observe the failure and retry the
//! library-then-flight sequence, so one bad tune does not wedge every
//! waiter forever.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// One in-progress flight. `result` is `None` while the leader works;
/// `Some(outcome)` once complete, where the outcome itself is `None`
/// if the leader failed.
struct Flight<T> {
    result: Mutex<Option<Option<T>>>,
    done: Condvar,
}

impl<T: Clone> Flight<T> {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Block until the flight lands. Purely signal-driven: `complete`
    /// publishes the outcome under the lock before it notifies, so an
    /// untimed wait cannot miss the wakeup.
    fn wait(&self) -> Option<T> {
        let mut slot = self.result.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            self.done.wait(&mut slot);
        }
    }

    fn complete(&self, outcome: Option<T>) {
        *self.result.lock() = Some(outcome);
        self.done.notify_all();
    }
}

/// A job parked on a flight, resumed with the flight's outcome (`None`
/// if the leader failed) once it lands.
pub trait ParkedJob<T>: Send + 'static {
    /// Continue with the landed outcome, on a worker of the pool the
    /// flight landed on.
    fn resume(self, outcome: Option<T>);
}

/// A flight in the map: the flight itself, for blocking followers, and
/// the jobs parked on it.
struct Entry<T> {
    flight: Arc<Flight<T>>,
    parked: Vec<Box<dyn FnOnce(Option<T>) + Send>>,
}

type Flights<T> = Arc<Mutex<HashMap<u64, Entry<T>>>>;

/// What `park` made of a job.
pub enum Parked<T: Clone + Send + 'static, J> {
    /// The flight in the air resumes the job when it lands.
    OnFlight,
    /// No flight was in the air: this call opened one. Lead it, then
    /// carry on with the job.
    Lead(FlightGuard<T>, J),
}

/// What `join` made of this request.
pub enum Role<T: Clone + Send + 'static> {
    /// This request leads: run the work, then call
    /// [`FlightGuard::complete`].
    Leader(FlightGuard<T>),
    /// Another request led; this is its (cloned) outcome — `None`
    /// means the leader failed and the caller should retry.
    Follower(Option<T>),
}

/// Leadership token. Completing (or dropping) it resolves the flight
/// and removes it from the map so later requests start fresh.
pub struct FlightGuard<T: Clone + Send + 'static> {
    flights: Flights<T>,
    key: u64,
    flight: Arc<Flight<T>>,
    completed: bool,
}

impl<T: Clone + Send + 'static> FlightGuard<T> {
    /// Publish the outcome to every follower and retire the flight:
    /// blocked followers wake, and every parked job is handed back to
    /// the calling worker's pool (run inline off a pool).
    pub fn complete(mut self, outcome: Option<T>) {
        self.resolve(outcome);
    }

    fn resolve(&mut self, outcome: Option<T>) {
        if self.completed {
            return;
        }
        self.completed = true;
        // Retire the flight first: a request arriving after removal
        // starts a new flight instead of joining a finished one.
        let parked = self
            .flights
            .lock()
            .remove(&self.key)
            .map(|entry| entry.parked)
            .unwrap_or_default();
        self.flight.complete(outcome.clone());
        for job in parked {
            let outcome = outcome.clone();
            petamg_runtime::spawn(move || job(outcome));
        }
    }
}

impl<T: Clone + Send + 'static> Drop for FlightGuard<T> {
    fn drop(&mut self) {
        // A leader that unwound without completing still resolves the
        // flight (as a failure) so followers are never stranded.
        self.resolve(None);
    }
}

/// The flight map: at most one in-progress flight per key.
pub struct SingleFlight<T: Clone + Send + 'static> {
    flights: Flights<T>,
}

impl<T: Clone + Send + 'static> Default for SingleFlight<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + 'static> SingleFlight<T> {
    pub fn new() -> Self {
        SingleFlight {
            flights: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Park `job` on the flight for `key` and return at once: the
    /// flight resumes it when it lands. With no flight in the air this
    /// call opens one instead, and hands the job back with the lead.
    /// Never blocks beyond the map lock.
    pub fn park<J: ParkedJob<T>>(&self, key: u64, job: J) -> Parked<T, J> {
        let mut flights = self.flights.lock();
        if let Some(entry) = flights.get_mut(&key) {
            entry
                .parked
                .push(Box::new(move |outcome| job.resume(outcome)));
            return Parked::OnFlight;
        }
        Parked::Lead(self.open(&mut flights, key), job)
    }

    /// Join the flight for `key`: the first caller becomes the leader,
    /// everyone else blocks until the leader completes. The service
    /// uses [`SingleFlight::park`] instead, whose followers give their
    /// worker back and are handed back to the pool when the flight
    /// lands.
    pub fn join(&self, key: u64) -> Role<T> {
        let mut flights = self.flights.lock();
        if let Some(entry) = flights.get(&key) {
            let f = Arc::clone(&entry.flight);
            drop(flights);
            return Role::Follower(f.wait());
        }
        Role::Leader(self.open(&mut flights, key))
    }

    /// File a new flight for `key` in the (locked) map and return its
    /// leadership.
    fn open(&self, flights: &mut HashMap<u64, Entry<T>>, key: u64) -> FlightGuard<T> {
        let flight = Arc::new(Flight::new());
        let entry = Entry {
            flight: Arc::clone(&flight),
            parked: Vec::new(),
        };
        flights.insert(key, entry);
        FlightGuard {
            flights: Arc::clone(&self.flights),
            key,
            flight,
            completed: false,
        }
    }

    /// Number of in-progress flights (for tests).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn one_leader_many_followers() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let leads = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sf = Arc::clone(&sf);
            let leads = Arc::clone(&leads);
            handles.push(std::thread::spawn(move || match sf.join(7) {
                Role::Leader(token) => {
                    leads.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    token.complete(Some(42));
                    42
                }
                Role::Follower(v) => v.expect("leader succeeded"),
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(leads.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(sf.in_flight(), 0, "flight retired");
    }

    #[test]
    fn failed_leader_releases_followers_with_none() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let token = match sf.join(1) {
            Role::Leader(t) => t,
            Role::Follower(_) => panic!("first join must lead"),
        };
        let sf2 = Arc::clone(&sf);
        let follower = std::thread::spawn(move || match sf2.join(1) {
            Role::Follower(v) => v,
            Role::Leader(_) => panic!("second join must follow"),
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(token); // leader unwinds without completing
        assert_eq!(follower.join().unwrap(), None);
        // The key is free again: the next join leads.
        assert!(matches!(sf.join(1), Role::Leader(_)));
    }

    /// Sends the outcome it is resumed with, and the worker it ran on.
    struct Report(mpsc::Sender<(Option<u32>, Option<usize>)>);

    impl ParkedJob<u32> for Report {
        fn resume(self, outcome: Option<u32>) {
            let worker = petamg_runtime::current_worker_index();
            self.0.send((outcome, worker)).unwrap();
        }
    }

    /// The first park opens the flight and leads it; the jobs parked
    /// after it wait for the landing, which hands them back to the
    /// landing worker's pool with the leader's outcome — `None` when
    /// the leader unwinds.
    #[test]
    fn parked_jobs_are_handed_back_to_the_landing_pool() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let (tx, rx) = mpsc::channel();
        let pool = petamg_runtime::ThreadPool::new(2);
        for outcome in [Some(9), None] {
            let token = match sf.park(3, Report(tx.clone())) {
                Parked::Lead(token, _job) => token,
                Parked::OnFlight => panic!("no flight to park on: the first park leads"),
            };
            for _ in 0..2 {
                assert!(matches!(sf.park(3, Report(tx.clone())), Parked::OnFlight));
            }
            assert!(rx.try_recv().is_err(), "parked jobs wait for the landing");
            pool.install(move || match outcome {
                Some(_) => token.complete(outcome),
                None => drop(token),
            });
            for _ in 0..2 {
                let (got, worker) = rx.recv_timeout(PATIENCE).expect("handed back");
                assert_eq!(got, outcome);
                assert!(matches!(worker, Some(i) if i < 2), "ran on {worker:?}");
            }
            assert_eq!(sf.in_flight(), 0);
        }
    }
}
