//! Fingerprint-keyed plan library: a directory of v5 plan files with a
//! bounded in-memory LRU cache in front of it.
//!
//! Disk is the system of record, memory is an accelerator. Each
//! [`ProblemFingerprint`] maps to
//! one file, `plan-<fnv1a-hash>.json`, written atomically by
//! `petamg_core::persist::save_plan`. A `get` first consults the LRU
//! cache; on miss it reloads from disk through
//! [`persist::load_plan_for`], which preserves the quarantine
//! semantics the guarded-solve story depends on: a corrupt file is
//! moved aside to `<name>.quarantined` and the library reports a plain
//! miss, so the caller falls back to tuning (or the heuristic rung)
//! instead of executing a scrambled plan. `get` is two steps a caller
//! can also take apart: [`PlanLibrary::lookup`] (memory only) and
//! [`PlanLibrary::load`] (disk only, nothing cached), whose result
//! [`PlanLibrary::remember`] files in memory once the caller has made
//! it servable — the service warms its direct factors first.
//!
//! The memory tier is a [`SingleFlight`] keyed by the plan's file key:
//! one resident plan per key, and at most one flight making the next
//! one. A resident plan carries the [`LadderMemory`] its guarded solves
//! share, made empty when the plan lands, so a re-tuned, re-inserted or
//! reloaded plan starts from nothing remembered and an evicted plan
//! takes its memory with it. The service resolves a request with one
//! `park`: the resident plan, else a place on the flight in the air,
//! else the lead of a new flight, which it lands with `land`.
//!
//! Eviction is safe by construction — an evicted entry is only a cache
//! entry, the file stays on disk and the next `get` reloads it
//! (re-verifying the v5 checksum on the way in).

use petamg_core::guard::LadderMemory;
use petamg_core::persist::{self, PlanLoadError};
use petamg_core::plan::TunedFamily;
use petamg_obs::{Counter, Registry};
use petamg_problems::{Problem, ProblemFingerprint};
use petamg_runtime::{FlightGuard, Parked, ParkedJob, SingleFlight};
use std::path::PathBuf;
use std::sync::Arc;

/// Default number of plans held in memory.
pub(crate) const DEFAULT_LIBRARY_CAPACITY: usize = 32;

/// Stable FNV-1a hash over the identity fields of a fingerprint.
/// Used both as the cache key and as the plan file name, so the
/// mapping from fingerprint to file survives process restarts.
pub fn fingerprint_key(fp: &ProblemFingerprint) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    h = eat(h, fp.family.as_bytes());
    h = eat(h, &[0xff]);
    h = eat(h, fp.profile.as_bytes());
    h = eat(h, &[0xff]);
    h = eat(h, &fp.param.to_bits().to_le_bytes());
    h = eat(h, &(fp.n as u64).to_le_bytes());
    h = eat(h, fp.coeff_hash.as_bytes());
    h
}

/// File name a fingerprint's plan is stored under.
pub fn plan_file_name(fp: &ProblemFingerprint) -> String {
    format!("plan-{:016x}.json", fingerprint_key(fp))
}

/// Where a served plan came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOrigin {
    /// The in-memory LRU cache.
    Memory,
    /// Reloaded from the plan directory (checksum re-verified).
    Disk,
}

/// A plan in memory, with what its degradation ladder did lately.
#[derive(Clone)]
pub(crate) struct Resident {
    /// The plan every lookup serves.
    pub plan: Arc<TunedFamily>,
    /// Shared by every guarded solve on this plan while it stays
    /// resident.
    pub memory: Arc<LadderMemory>,
}

impl Resident {
    fn new(family: TunedFamily) -> Self {
        Resident {
            plan: Arc::new(family),
            memory: Arc::new(LadderMemory::new()),
        }
    }
}

/// Counter snapshot for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that found nothing (no file, or the file was bad).
    pub misses: u64,
    /// Lookups served by reloading a plan file from disk.
    pub disk_loads: u64,
    /// Corrupt plan files moved aside to `<name>.quarantined`.
    pub quarantined: u64,
    /// Healthy plans (cached or on disk) rejected because their
    /// fingerprint did not match the posed problem (hash collision or a
    /// hand-edited file).
    pub mismatches: u64,
    /// Real I/O failures reading a plan file (permissions, truncated
    /// device reads, …) — **not** the routine file-absent miss.
    pub io_errors: u64,
    /// Cache entries dropped to keep the memory bound.
    pub evictions: u64,
    /// Plans written through `insert`.
    pub inserts: u64,
}

struct Counters {
    hits: Counter,
    misses: Counter,
    disk_loads: Counter,
    quarantined: Counter,
    mismatches: Counter,
    io_errors: Counter,
    evictions: Counter,
    inserts: Counter,
}

impl Default for Counters {
    /// Detached counters: a library built standalone counts without
    /// any registry. [`PlanLibrary::with_registry`] swaps these for
    /// registered handles.
    fn default() -> Self {
        Counters {
            hits: Counter::detached(),
            misses: Counter::detached(),
            disk_loads: Counter::detached(),
            quarantined: Counter::detached(),
            mismatches: Counter::detached(),
            io_errors: Counter::detached(),
            evictions: Counter::detached(),
            inserts: Counter::detached(),
        }
    }
}

impl Counters {
    fn registered(registry: &Registry) -> Self {
        let c = |name: &'static str| registry.counter(name, &[]);
        Counters {
            hits: c("petamg_library_hits_total"),
            misses: c("petamg_library_misses_total"),
            disk_loads: c("petamg_library_disk_loads_total"),
            quarantined: c("petamg_library_quarantined_total"),
            mismatches: c("petamg_library_mismatches_total"),
            io_errors: c("petamg_library_io_errors_total"),
            evictions: c("petamg_library_evictions_total"),
            inserts: c("petamg_library_inserts_total"),
        }
    }
}

/// A directory of tuned-plan files with a bounded LRU cache in front.
///
/// All methods take `&self`; the library is shared across serving
/// workers behind an `Arc`.
pub struct PlanLibrary {
    dir: PathBuf,
    /// key → resident plan, and the flight making the next one.
    memory: SingleFlight<Resident>,
    stats: Counters,
    /// Fingerprint → cache key / file name. [`fingerprint_key`] in
    /// production; tests swap in a colliding function to exercise the
    /// aliasing defenses (the key is a *locator*, never an identity —
    /// every hit is re-verified against the full fingerprint).
    key_fn: fn(&ProblemFingerprint) -> u64,
}

impl PlanLibrary {
    /// Open (creating if needed) a plan directory with the default
    /// in-memory capacity.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_capacity(dir, DEFAULT_LIBRARY_CAPACITY)
    }

    /// Open with an explicit in-memory capacity bound (≥ 1).
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PlanLibrary {
            dir,
            memory: SingleFlight::with_capacity(capacity),
            stats: Counters::default(),
            key_fn: fingerprint_key,
        })
    }

    /// File this library's counters in `registry` under the
    /// `petamg_library_*_total` names, replacing the detached
    /// defaults. Counts made before the swap are dropped — call this
    /// at construction (the service does).
    pub(crate) fn with_registry(mut self, registry: &Registry) -> Self {
        self.stats = Counters::registered(registry);
        self
    }

    /// Replace the fingerprint→key function (cache key **and** file
    /// name). A test seam: forcing distinct fingerprints onto one key
    /// exercises the collision defenses without reversing FNV-1a.
    #[cfg(test)]
    pub(crate) fn with_key_fn(mut self, key_fn: fn(&ProblemFingerprint) -> u64) -> Self {
        self.key_fn = key_fn;
        self
    }

    /// Number of plans currently cached in memory: ≤ capacity whenever
    /// no flight is in the air (a plan whose successor is being made is
    /// not evicted).
    pub fn cached(&self) -> usize {
        self.memory.len()
    }

    /// Path the plan for `fp` is (or would be) stored at.
    pub fn path_for(&self, fp: &ProblemFingerprint) -> PathBuf {
        self.dir
            .join(format!("plan-{:016x}.json", (self.key_fn)(fp)))
    }

    /// Cached keys in most-recently-used-first order, the order the LRU
    /// property tests compare with their model.
    #[cfg(test)]
    pub(crate) fn cached_keys(&self) -> Vec<u64> {
        self.memory.landed().into_iter().map(|(k, _)| k).collect()
    }

    /// How many resident plans have a ladder memory that skips a rung.
    pub(crate) fn open_ladder_memories(&self) -> usize {
        let landed = self.memory.landed();
        landed.iter().filter(|(_, r)| r.memory.is_open()).count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LibraryStats {
        LibraryStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            disk_loads: self.stats.disk_loads.get(),
            quarantined: self.stats.quarantined.get(),
            mismatches: self.stats.mismatches.get(),
            io_errors: self.stats.io_errors.get(),
            evictions: self.stats.evictions.get(),
            inserts: self.stats.inserts.get(),
        }
    }

    fn key(&self, problem: &Problem) -> u64 {
        (self.key_fn)(problem.fingerprint())
    }

    /// Whether `plan`, found under `problem`'s key, is `problem`'s.
    /// The key is only a locator: two distinct problems whose
    /// fingerprints hash to one key would otherwise alias — the second
    /// would silently execute a plan tuned for the first. A mismatch
    /// counts as a mismatch and a miss; the plan stays, as it is
    /// correct for the problem that filed it.
    fn owns(&self, plan: &TunedFamily, problem: &Problem) -> bool {
        let owns = plan.ensure_problem(problem.fingerprint()).is_ok();
        if !owns {
            self.stats.mismatches.inc();
            self.stats.misses.inc();
        }
        owns
    }

    /// Fetch the plan for `problem`: [`PlanLibrary::lookup`], then
    /// [`PlanLibrary::load`] and [`PlanLibrary::remember`].
    ///
    /// Returns `None` when no usable plan exists — never a corrupt
    /// one. A file that fails to parse or checksum is quarantined by
    /// `persist::load_plan_for` and counted; a healthy file whose
    /// fingerprint does not match the posed problem is left in place
    /// and counted. Either way the caller should tune (or let the
    /// guarded ladder fall back to its heuristic rung).
    pub fn get(&self, problem: &Problem) -> Option<(Arc<TunedFamily>, PlanOrigin)> {
        match self.memory.get(&self.key(problem)) {
            // On a mismatch the colliding key also names the on-disk
            // file, so a load could only reproduce the same mismatch.
            Some(resident) => Some((self.hit(resident, problem)?, PlanOrigin::Memory)),
            None => Some((
                self.remember(problem, self.load(problem)?),
                PlanOrigin::Disk,
            )),
        }
    }

    /// The plan for `problem` in memory, if any. Counts a hit, or a
    /// mismatch and a miss; an absent key counts nothing (the disk
    /// decides whether that is a miss).
    pub fn lookup(&self, problem: &Problem) -> Option<Arc<TunedFamily>> {
        self.hit(self.memory.get(&self.key(problem))?, problem)
    }

    /// `resident`'s plan, counted as a hit, if it is `problem`'s.
    fn hit(&self, resident: Resident, problem: &Problem) -> Option<Arc<TunedFamily>> {
        self.owns(&resident.plan, problem).then(|| {
            self.stats.hits.inc();
            resident.plan
        })
    }

    /// Serve `job` from the resident plan of its `problem` if `serves`
    /// takes it; else park `job` on the flight making that plan; else
    /// open one and hand `job` back with its lead, to land with
    /// [`PlanLibrary::land`]. One lock, counted as
    /// [`PlanLibrary::lookup`] counts, except that a plan of the
    /// problem's that `serves` turns down counts nothing.
    pub(crate) fn park<J: ParkedJob<Resident>>(
        &self,
        job: J,
        problem: fn(&J) -> &Problem,
        serves: impl FnOnce(&TunedFamily) -> bool,
    ) -> Parked<Resident, J> {
        let accept = |resident: &Resident, job: &J| {
            let hit = self.owns(&resident.plan, problem(job)) && serves(&resident.plan);
            if hit {
                self.stats.hits.inc();
            }
            hit
        };
        self.memory.park(self.key(problem(&job)), accept, job)
    }

    /// File `family` in memory by landing `flight`, its problem's
    /// flight from [`PlanLibrary::park`], and return what every later
    /// lookup serves. The plan must already be on disk: loaded with
    /// [`PlanLibrary::load`], or saved.
    pub(crate) fn land(&self, flight: FlightGuard<Resident>, family: TunedFamily) -> Resident {
        let resident = Resident::new(family);
        let evicted = flight.file(resident.clone());
        self.stats.evictions.add(evicted);
        resident
    }

    /// Read the plan for `problem` from its file (checksum
    /// re-verified), without putting it in memory: the caller files it
    /// there with [`PlanLibrary::remember`] once it is ready to serve.
    /// `None` is a counted miss, as for [`PlanLibrary::get`].
    pub fn load(&self, problem: &Problem) -> Option<TunedFamily> {
        match persist::load_plan_for(&self.path_for(problem.fingerprint()), problem) {
            Ok(family) => {
                self.stats.disk_loads.inc();
                Some(family)
            }
            Err(PlanLoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // No file: the routine cold miss.
                self.stats.misses.inc();
                None
            }
            Err(PlanLoadError::Io(_)) => {
                // The file exists but could not be read (permissions,
                // device error, …). Still a miss — the ladder's
                // heuristic rung covers it — but distinguishable from
                // "never tuned" so operators can see a sick plan dir.
                self.stats.io_errors.inc();
                self.stats.misses.inc();
                None
            }
            Err(PlanLoadError::Parse { quarantined, .. }) => {
                if quarantined.is_some() {
                    self.stats.quarantined.inc();
                }
                self.stats.misses.inc();
                None
            }
            Err(PlanLoadError::ProblemMismatch(_)) => {
                self.stats.mismatches.inc();
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Persist a freshly tuned plan and cache it.
    ///
    /// The plan must carry `problem`'s fingerprint (tuners stamp it;
    /// the service re-stamps hand-built families) — a mismatch is
    /// rejected here rather than on every future load. The file write
    /// is atomic, so concurrent readers only ever see whole plans.
    pub fn insert(
        &self,
        problem: &Problem,
        family: TunedFamily,
    ) -> std::io::Result<Arc<TunedFamily>> {
        self.save(problem, &family)?;
        Ok(self.remember(problem, family))
    }

    /// The disk half of [`PlanLibrary::insert`].
    pub(crate) fn save(&self, problem: &Problem, family: &TunedFamily) -> std::io::Result<()> {
        if family.ensure_problem(problem.fingerprint()).is_err() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "plan fingerprint does not match the problem it is filed under",
            ));
        }
        persist::save_plan(family, &self.path_for(problem.fingerprint()))?;
        self.stats.inserts.inc();
        Ok(())
    }

    /// Put a plan for `problem` that is already on disk (a
    /// [`PlanLibrary::load`] result) in memory, and return the shared
    /// copy every later lookup serves.
    pub fn remember(&self, problem: &Problem, family: TunedFamily) -> Arc<TunedFamily> {
        let resident = Resident::new(family);
        let evicted = self.memory.put(self.key(problem), resident.clone());
        self.stats.evictions.add(evicted);
        resident.plan
    }

    /// Drop every in-memory entry (disk untouched). Tests use this to
    /// force disk reloads.
    pub fn clear_cache(&self) {
        self.memory.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petamg_core::plan::{simple_v_family, PAPER_ACCURACIES};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("petamg-library-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stamped(problem: &Problem, max_level: usize) -> TunedFamily {
        let mut fam = simple_v_family(max_level, &PAPER_ACCURACIES);
        fam.problem = problem.fingerprint().clone();
        fam
    }

    #[test]
    fn keys_distinguish_canonical_problems() {
        let problems = [
            Problem::poisson(),
            Problem::anisotropic(0.1),
            Problem::anisotropic(0.01),
            Problem::smooth_sinusoidal(17),
            Problem::jump_inclusion(17),
        ];
        let keys: Vec<u64> = problems
            .iter()
            .map(|p| fingerprint_key(p.fingerprint()))
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "problems {i} and {j} collide");
            }
        }
    }

    #[test]
    fn insert_then_get_hits_memory_then_disk() {
        let lib = PlanLibrary::open(tmp_dir("roundtrip")).unwrap();
        let poisson = Problem::poisson();
        assert!(lib.get(&poisson).is_none(), "empty library misses");
        lib.insert(&poisson, stamped(&poisson, 4)).unwrap();
        let (_, origin) = lib.get(&poisson).unwrap();
        assert_eq!(origin, PlanOrigin::Memory);
        lib.clear_cache();
        let (plan, origin) = lib.get(&poisson).unwrap();
        assert_eq!(origin, PlanOrigin::Disk);
        assert_eq!(plan.max_level, 4);
        let s = lib.stats();
        assert_eq!((s.hits, s.disk_loads, s.misses), (1, 1, 1));
    }

    #[test]
    fn a_load_is_served_from_memory_only_once_remembered() {
        let lib = PlanLibrary::open(tmp_dir("split")).unwrap();
        let poisson = Problem::poisson();
        lib.insert(&poisson, stamped(&poisson, 4)).unwrap();
        lib.clear_cache();
        assert!(lib.lookup(&poisson).is_none());
        let family = lib.load(&poisson).expect("the file loads");
        assert!(lib.lookup(&poisson).is_none(), "a load caches nothing");
        let plan = lib.remember(&poisson, family);
        assert!(Arc::ptr_eq(&plan, &lib.lookup(&poisson).unwrap()));
        let s = lib.stats();
        assert_eq!((s.hits, s.disk_loads, s.misses), (1, 1, 0));
    }

    #[test]
    fn capacity_bound_holds_and_disk_backs_evictions() {
        let lib = PlanLibrary::with_capacity(tmp_dir("evict"), 2).unwrap();
        let problems = [
            Problem::poisson(),
            Problem::anisotropic(0.1),
            Problem::anisotropic(0.01),
        ];
        for p in &problems {
            lib.insert(p, stamped(p, 3)).unwrap();
        }
        assert_eq!(lib.cached(), 2);
        assert_eq!(lib.stats().evictions, 1);
        // The evicted (oldest) plan reloads from disk.
        let (_, origin) = lib.get(&problems[0]).unwrap();
        assert_eq!(origin, PlanOrigin::Disk);
    }

    /// Regression test for plan-cache collision aliasing: force two
    /// distinct fingerprints onto one cache key (and thus one file) and
    /// assert the second problem is **never** served the first's plan —
    /// neither from memory nor from disk. Before the fix, the memory
    /// path trusted the key alone and handed problem B problem A's
    /// plan.
    #[test]
    fn colliding_keys_never_alias_plans() {
        fn collide(_: &ProblemFingerprint) -> u64 {
            0xdead_beef
        }
        let lib = PlanLibrary::open(tmp_dir("collide"))
            .unwrap()
            .with_key_fn(collide);
        let poisson = Problem::poisson();
        let aniso = Problem::anisotropic(0.1);
        assert_ne!(
            fingerprint_key(poisson.fingerprint()),
            fingerprint_key(aniso.fingerprint()),
            "distinct problems (collision is forced by the key seam)"
        );
        lib.insert(&poisson, stamped(&poisson, 4)).unwrap();

        // Memory path: the cached entry under the shared key carries
        // Poisson's fingerprint; posing aniso must miss, not alias.
        assert!(lib.get(&aniso).is_none(), "aliased memory hit");
        let s = lib.stats();
        assert_eq!((s.hits, s.mismatches, s.misses), (0, 1, 1));

        // Disk path: the shared key also names the file, so a cold
        // cache must reject it by fingerprint too.
        lib.clear_cache();
        assert!(lib.get(&aniso).is_none(), "aliased disk load");
        let s = lib.stats();
        assert_eq!((s.mismatches, s.misses, s.disk_loads), (2, 2, 0));

        // The rightful owner still gets its plan back.
        let (plan, _) = lib.get(&poisson).expect("owner must still be served");
        assert!(plan.ensure_problem(poisson.fingerprint()).is_ok());
        // And a hit for the owner leaves the entry cached without
        // evicting it for the mismatched prober.
        assert!(lib.get(&poisson).is_some());
        assert!(lib.get(&aniso).is_none());
    }

    #[test]
    fn unreadable_file_counts_io_error_not_plain_miss() {
        let dir = tmp_dir("ioerr");
        let lib = PlanLibrary::open(&dir).unwrap();
        let poisson = Problem::poisson();
        // Absent file: a plain miss, no io_errors.
        assert!(lib.get(&poisson).is_none());
        let s = lib.stats();
        assert_eq!((s.misses, s.io_errors), (1, 0));

        // A directory where the plan file should be: reading it fails
        // with a real I/O error, not NotFound.
        std::fs::create_dir_all(lib.path_for(poisson.fingerprint())).unwrap();
        assert!(lib.get(&poisson).is_none());
        let s = lib.stats();
        assert_eq!((s.misses, s.io_errors), (2, 1));
    }

    #[test]
    fn registered_counters_surface_in_the_snapshot() {
        let registry = Registry::new();
        let lib = PlanLibrary::open(tmp_dir("registry"))
            .unwrap()
            .with_registry(&registry);
        let poisson = Problem::poisson();
        assert!(lib.get(&poisson).is_none());
        lib.insert(&poisson, stamped(&poisson, 4)).unwrap();
        lib.get(&poisson).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("petamg_library_misses_total", &[]), 1);
        assert_eq!(snap.counter("petamg_library_inserts_total", &[]), 1);
        assert_eq!(snap.counter("petamg_library_hits_total", &[]), 1);
        // The legacy stats shape reads through the same counters.
        let s = lib.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn mismatched_insert_is_rejected() {
        let lib = PlanLibrary::open(tmp_dir("mismatch")).unwrap();
        let aniso = Problem::anisotropic(0.1);
        // A Poisson-stamped family filed under anisotropic is a bug.
        let fam = simple_v_family(3, &PAPER_ACCURACIES);
        assert!(lib.insert(&aniso, fam).is_err());
    }
}
