//! One keyed map of reusable values: per key at most one flight in the
//! air and one landed value, with a least-recently-used bound on the
//! landed values.
//!
//! A *flight* makes the value for a key. The first caller to miss
//! leads it; callers that miss while it is in the air either
//! [`park`](SingleFlight::park) a job on it and return at once, giving
//! their worker back, or [`join`](SingleFlight::join) it and block.
//! Looking up, parking and opening a flight happen in one critical
//! section, so nobody races a flight taking off or landing. Landing
//! files the leader's value, evicts the stalest other landed values
//! beyond the capacity, wakes the blocked callers and hands every
//! parked job back to the landing worker's pool ([`crate::spawn`]).
//!
//! A leader that fails completes with `None` (or drops its
//! [`FlightGuard`]): the flight retires, any older landed value stays,
//! and the callers waiting on it see `None` and may go round again. An
//! entry whose flight is in the air is never evicted, since the jobs
//! parked on it would be stranded.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A job parked on a flight, resumed with the flight's outcome (`None`
/// if the leader failed) once it lands.
pub trait ParkedJob<T>: Send + 'static {
    /// Continue with the landed outcome, on a worker of the pool the
    /// flight landed on.
    fn resume(self, outcome: Option<T>);
}

type Resume<T> = Box<dyn FnOnce(Option<T>) + Send>;

/// One key's state: never without a value or a flight.
struct Entry<T> {
    value: Option<T>,
    /// The jobs parked on the flight in the air; `None` when no flight is.
    flight: Option<Vec<Resume<T>>>,
    last_used: u64,
}

struct Map<K, T> {
    entries: HashMap<K, Entry<T>>,
    /// Monotonic LRU clock.
    tick: u64,
    capacity: usize,
    /// Callers blocked in `join`, which the tests' handshakes wait on.
    #[cfg(test)]
    waiting: usize,
}

impl<K: Eq + Hash + Clone, T> Map<K, T> {
    /// `key`'s entry (made empty if there is none), marked most
    /// recently used.
    fn slot(&mut self, key: &K) -> &mut Entry<T> {
        self.tick += 1;
        let entry = self.entries.entry(key.clone()).or_insert(Entry {
            value: None,
            flight: None,
            last_used: 0,
        });
        entry.last_used = self.tick;
        entry
    }

    /// File `value` under `key` and evict the least recently used of
    /// the other landed values beyond the capacity; returns how many
    /// went.
    fn file(&mut self, key: &K, value: T) -> u64 {
        self.slot(key).value = Some(value);
        let mut evicted = 0;
        while self.landed() > self.capacity {
            let stalest = (self.entries.iter())
                .filter(|(k, entry)| entry.flight.is_none() && *k != key)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            // Every other landed value is under a flight in the air.
            let Some(stalest) = stalest else { break };
            self.entries.remove(&stalest);
            evicted += 1;
        }
        evicted
    }

    fn landed(&self) -> usize {
        self.entries.values().filter(|e| e.value.is_some()).count()
    }
}

struct Shared<K, T> {
    map: Mutex<Map<K, T>>,
    /// Notified at every landing, for the callers blocked in `join`.
    landings: Condvar,
}

/// What [`SingleFlight::park`] made of a job.
pub enum Parked<T: Clone + Send + 'static, J, K: Eq + Hash + Clone + Send + 'static = u64> {
    /// The landed value passed `accept`: carry on with it.
    Ready(T, J),
    /// The flight in the air resumes the job when it lands.
    OnFlight,
    /// No flight was in the air: this call opened one. Lead it, then
    /// carry on with the job.
    Lead(FlightGuard<T, K>, J),
}

/// What [`SingleFlight::join`] made of this call.
pub enum Role<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static = u64> {
    /// This call leads: make the value, then
    /// [`FlightGuard::complete`].
    Leader(FlightGuard<T, K>),
    /// The landed value, or what the flight this call waited on left —
    /// `None` means its leader failed and the caller may retry.
    Follower(Option<T>),
}

/// Leadership of a flight. Completing (or dropping) it lands the flight
/// and hands its outcome to everyone waiting on it.
pub struct FlightGuard<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static = u64> {
    shared: Arc<Shared<K, T>>,
    key: K,
    landed: bool,
}

impl<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static> FlightGuard<T, K> {
    /// Land the flight: `Some(v)` files `v` in place of any older
    /// value, `None` keeps the older one. Blocked callers wake, and
    /// every parked job is handed back to the calling worker's pool
    /// (run inline off a pool).
    pub fn complete(mut self, outcome: Option<T>) {
        self.land(outcome);
    }

    /// `complete(Some(value))`, returning how many landed values were
    /// evicted to make room for it.
    pub fn file(mut self, value: T) -> u64 {
        self.land(Some(value))
    }

    fn land(&mut self, outcome: Option<T>) -> u64 {
        if std::mem::replace(&mut self.landed, true) {
            return 0;
        }
        let mut map = self.shared.map.lock();
        // No eviction or `clear` removes an entry with a flight, so the
        // entry is there until this guard lands.
        let Some(entry) = map.entries.get_mut(&self.key) else {
            return 0;
        };
        let parked = entry.flight.take().unwrap_or_default();
        let evicted = match outcome.clone() {
            Some(value) => map.file(&self.key, value),
            None if entry.value.is_none() => {
                map.entries.remove(&self.key);
                0
            }
            None => 0,
        };
        drop(map);
        self.shared.landings.notify_all();
        for job in parked {
            let outcome = outcome.clone();
            crate::spawn(move || job(outcome));
        }
        evicted
    }
}

impl<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static> Drop for FlightGuard<T, K> {
    fn drop(&mut self) {
        // A leader that unwound without completing still lands the
        // flight (as a failure), so nobody waiting on it is stranded.
        self.land(None);
    }
}

/// The keyed map. See the module docs.
pub struct SingleFlight<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static = u64> {
    shared: Arc<Shared<K, T>>,
}

impl<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static> Default
    for SingleFlight<T, K>
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + 'static, K: Eq + Hash + Clone + Send + 'static> SingleFlight<T, K> {
    /// An empty map whose landed values are never evicted.
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// An empty map keeping at most `capacity` landed values (at least
    /// 1), beyond those whose flight is in the air.
    pub fn with_capacity(capacity: usize) -> Self {
        let map = Map {
            entries: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            #[cfg(test)]
            waiting: 0,
        };
        SingleFlight {
            shared: Arc::new(Shared {
                map: Mutex::new(map),
                landings: Condvar::new(),
            }),
        }
    }

    /// The bound on landed values.
    pub fn capacity(&self) -> usize {
        self.shared.map.lock().capacity
    }

    /// The landed value under `key`, marked most recently used.
    pub fn get(&self, key: &K) -> Option<T> {
        let mut map = self.shared.map.lock();
        map.tick += 1;
        let tick = map.tick;
        let entry = map.entries.get_mut(key)?;
        entry.last_used = tick;
        entry.value.clone()
    }

    /// Serve `job` from the value landed under `key` if `accept` takes
    /// it for `job`; else park the job on the flight in the air, which
    /// resumes it when it lands; else open a flight and hand the job
    /// back with its lead. Never blocks beyond the map lock, which
    /// `accept` runs under.
    pub fn park<J: ParkedJob<T>>(
        &self,
        key: K,
        accept: impl FnOnce(&T, &J) -> bool,
        job: J,
    ) -> Parked<T, J, K> {
        let mut map = self.shared.map.lock();
        let entry = map.slot(&key);
        if let Some(value) = entry.value.as_ref().filter(|v| accept(v, &job)) {
            return Parked::Ready(value.clone(), job);
        }
        match &mut entry.flight {
            Some(parked) => {
                parked.push(Box::new(move |outcome| job.resume(outcome)));
                Parked::OnFlight
            }
            None => {
                entry.flight = Some(Vec::new());
                Parked::Lead(self.guard(key), job)
            }
        }
    }

    /// The blocking form of [`SingleFlight::park`], taking any landed
    /// value: the value, else what the flight in the air leaves when it
    /// lands, else the lead of a new flight.
    pub fn join(&self, key: K) -> Role<T, K> {
        let mut map = self.shared.map.lock();
        let entry = map.slot(&key);
        if let Some(value) = &entry.value {
            return Role::Follower(Some(value.clone()));
        }
        if entry.flight.is_none() {
            entry.flight = Some(Vec::new());
            return Role::Leader(self.guard(key));
        }
        #[cfg(test)]
        {
            map.waiting += 1;
        }
        let outcome = loop {
            self.shared.landings.wait(&mut map);
            match map.entries.get(&key) {
                Some(Entry {
                    flight: Some(_), ..
                }) => continue,
                landed => break landed.and_then(|e| e.value.clone()),
            }
        };
        #[cfg(test)]
        {
            map.waiting -= 1;
        }
        Role::Follower(outcome)
    }

    /// Callers blocked in [`SingleFlight::join`], on any key.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.shared.map.lock().waiting
    }

    fn guard(&self, key: K) -> FlightGuard<T, K> {
        FlightGuard {
            shared: Arc::clone(&self.shared),
            key,
            landed: false,
        }
    }

    /// File `value` under `key` as a landing would, without touching a
    /// flight in the air. Returns how many landed values were evicted.
    pub fn put(&self, key: K, value: T) -> u64 {
        self.shared.map.lock().file(&key, value)
    }

    /// Every landed value with its key, most recently used first.
    pub fn landed(&self) -> Vec<(K, T)> {
        let map = self.shared.map.lock();
        let mut landed: Vec<_> = (map.entries.iter())
            .filter_map(|(k, e)| Some((e.last_used, k.clone(), e.value.clone()?)))
            .collect();
        landed.sort_by_key(|&(tick, ..)| std::cmp::Reverse(tick));
        landed.into_iter().map(|(_, k, v)| (k, v)).collect()
    }

    /// Number of landed values.
    pub fn len(&self) -> usize {
        self.shared.map.lock().landed()
    }

    /// Whether no value is landed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of flights in the air.
    pub fn in_flight(&self) -> usize {
        let map = self.shared.map.lock();
        map.entries.values().filter(|e| e.flight.is_some()).count()
    }

    /// Drop every landed value; flights in the air stay.
    pub fn clear(&self) {
        self.shared.map.lock().entries.retain(|_, entry| {
            entry.value = None;
            entry.flight.is_some()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Wait, at most `PATIENCE`, until `n` callers block in `join`.
    fn await_waiting(sf: &SingleFlight<u32>, n: usize) -> bool {
        let deadline = Instant::now() + PATIENCE;
        while sf.waiting() < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

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
                    // Land only once the seven others wait on the flight.
                    assert!(await_waiting(&sf, 7), "the followers never joined");
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
        assert!(await_waiting(&sf, 1), "the follower never joined");
        drop(token); // leader unwinds without completing
        assert_eq!(follower.join().unwrap(), None);
        // The key is free again: the next join leads.
        assert!(matches!(sf.join(1), Role::Leader(_)));
    }

    /// Sends the outcome it is resumed with, and the worker it ran on.
    struct Report(mpsc::Sender<(Option<u32>, Option<usize>)>);

    impl ParkedJob<u32> for Report {
        fn resume(self, outcome: Option<u32>) {
            let worker = crate::current_worker_index();
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
        let pool = crate::ThreadPool::new(2);
        for outcome in [Some(9), None] {
            let token = match sf.park(3, |_, _| false, Report(tx.clone())) {
                Parked::Lead(token, _job) => token,
                _ => panic!("no flight to park on: the first park leads"),
            };
            for _ in 0..2 {
                let parked = sf.park(3, |_, _| false, Report(tx.clone()));
                assert!(matches!(parked, Parked::OnFlight));
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

    impl ParkedJob<u32> for () {
        fn resume(self, _: Option<u32>) {}
    }

    /// Park a no-op job on `key` with `accept` answering `take`: what
    /// `park` made of it, and the lead if it took one.
    fn park(sf: &SingleFlight<u32>, key: u64, take: bool) -> (&str, Option<FlightGuard<u32>>) {
        match sf.park(key, |_, _| take, ()) {
            Parked::Ready(..) => ("ready", None),
            Parked::OnFlight => ("on flight", None),
            Parked::Lead(token, ()) => ("lead", Some(token)),
        }
    }

    /// A landed value serves `get`, `join` and `park`, and a landing
    /// past the capacity evicts the least recently used other value.
    #[test]
    fn landed_values_serve_and_the_least_recently_used_is_evicted() {
        let sf: SingleFlight<u32> = SingleFlight::with_capacity(2);
        assert_eq!(park(&sf, 1, false).1.unwrap().file(10), 0);
        assert_eq!(sf.put(2, 20), 0);
        assert_eq!(sf.get(&1), Some(10));
        assert!(matches!(sf.join(2), Role::Follower(Some(20))));
        assert_eq!(park(&sf, 1, true).0, "ready");
        assert_eq!(sf.put(3, 30), 1, "key 2 is the least recently used");
        assert_eq!((sf.get(&2), sf.len(), sf.in_flight()), (None, 2, 0));
        let keys: Vec<u64> = sf.landed().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [3, 1]);
    }

    /// At capacity 1 an entry whose flight is in the air stays however
    /// many other keys land, and its parked jobs get its value.
    #[test]
    fn an_entry_with_a_flight_in_the_air_is_never_evicted() {
        let sf: SingleFlight<u32> = SingleFlight::with_capacity(1);
        let (tx, rx) = mpsc::channel();
        sf.put(1, 10);
        let (_, first) = park(&sf, 1, false);
        for _ in 0..2 {
            let parked = sf.park(1, |_, _| false, Report(tx.clone()));
            assert!(matches!(parked, Parked::OnFlight));
        }
        assert_eq!(park(&sf, 2, false).1.unwrap().file(20), 0);
        assert_eq!(sf.put(3, 30), 1, "key 2 goes, key 1 stays");
        assert_eq!((sf.get(&1), sf.get(&2), sf.len()), (Some(10), None, 2));
        first.unwrap().complete(Some(11));
        for _ in 0..2 {
            let (got, _) = rx.recv_timeout(PATIENCE).expect("handed back");
            assert_eq!(got, Some(11));
        }
        assert_eq!((sf.get(&1), sf.len()), (Some(11), 1), "bound restored");
    }

    /// A landed value that `accept` turns down leads a new flight, and
    /// `get` serves the old value until the new one lands.
    #[test]
    fn a_rejected_value_leads_a_new_flight_and_still_serves_get() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        sf.put(5, 4);
        let (verdict, deeper) = park(&sf, 5, false);
        assert_eq!(verdict, "lead");
        assert_eq!(sf.get(&5), Some(4));
        assert!(matches!(sf.join(5), Role::Follower(Some(4))));
        assert_eq!(park(&sf, 5, false).0, "on flight");
        deeper.unwrap().complete(Some(5));
        assert_eq!(sf.get(&5), Some(5));
    }

    /// A failed flight keeps the value landed before it, and leaves
    /// nothing behind on a key that had none.
    #[test]
    fn completing_with_none_keeps_the_older_value() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        sf.put(8, 80);
        park(&sf, 8, false).1.unwrap().complete(None);
        drop(park(&sf, 9, false).1);
        assert_eq!((sf.get(&8), sf.get(&9), sf.len()), (Some(80), None, 1));
        assert_eq!(sf.in_flight(), 0);
    }
}
