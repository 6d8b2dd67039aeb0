//! Flat configuration spaces.
//!
//! "All choices are represented in a flat configuration space.
//! Dependencies between these configurable parameters are exported to
//! the autotuner so that the autotuner can choose a sensible order to
//! tune different parameters." (§3.2.2)

use petamg_grid::SimdPolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a parameter within its [`ConfigSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// How numeric parameters are traversed/mutated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Additive steps.
    Linear,
    /// Multiplicative steps (cutoffs, block sizes).
    Log,
}

/// The kind and domain of a parameter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// An algorithmic choice among named alternatives.
    Switch { choices: Vec<String> },
    /// An integer tunable in `[lo, hi]`.
    Int { lo: i64, hi: i64, scale: Scale },
    /// A float tunable in `[lo, hi]`.
    Float { lo: f64, hi: f64 },
}

/// A single parameter: name, domain, default.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Unique name within the space (used in config files).
    pub name: String,
    /// Domain.
    pub kind: ParamKind,
    /// Default value (must lie in the domain).
    pub default: ParamValue,
}

/// A concrete value for one parameter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ParamValue {
    /// Index into a switch's choices.
    Switch(usize),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
}

/// Errors raised by config validation and IO.
#[derive(Debug)]
pub enum ConfigError {
    /// Value does not match the parameter's kind or domain.
    Invalid { param: String, reason: String },
    /// A named parameter is missing / unknown.
    UnknownParam(String),
    /// Underlying serde/IO failure.
    Io(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Invalid { param, reason } => {
                write!(f, "invalid value for '{param}': {reason}")
            }
            ConfigError::UnknownParam(p) => write!(f, "unknown parameter '{p}'"),
            ConfigError::Io(e) => write!(f, "config io error: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A flat space of parameters plus tuning-order dependencies.
#[derive(Clone, Debug, Default)]
pub struct ConfigSpace {
    params: Vec<ParamSpec>,
    /// Edge `(a, b)`: parameter `a` depends on `b` (tune `b` first).
    deps: Vec<(usize, usize)>,
}

impl ConfigSpace {
    /// Empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The spec of `id`.
    pub fn spec(&self, id: ParamId) -> &ParamSpec {
        &self.params[id.0]
    }

    /// All specs in declaration order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Find a parameter by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name).map(ParamId)
    }

    /// The `[lo, hi]` domain of an integer parameter, by name. `None`
    /// if the parameter is missing or not an integer.
    pub fn int_domain(&self, name: &str) -> Option<(i64, i64)> {
        match self.spec(self.find(name)?).kind {
            ParamKind::Int { lo, hi, .. } => Some((lo, hi)),
            _ => None,
        }
    }

    fn add(&mut self, spec: ParamSpec) -> ParamId {
        assert!(
            self.find(&spec.name).is_none(),
            "duplicate parameter name '{}'",
            spec.name
        );
        self.params.push(spec);
        ParamId(self.params.len() - 1)
    }

    /// Add an algorithmic switch; `default` is an index into `choices`.
    pub fn add_switch(&mut self, name: &str, choices: &[&str], default: usize) -> ParamId {
        assert!(default < choices.len(), "switch default out of range");
        self.add(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Switch {
                choices: choices.iter().map(|s| s.to_string()).collect(),
            },
            default: ParamValue::Switch(default),
        })
    }

    /// Add an integer tunable.
    pub fn add_int(&mut self, name: &str, lo: i64, hi: i64, default: i64, scale: Scale) -> ParamId {
        assert!(lo <= hi && (lo..=hi).contains(&default), "bad int domain");
        self.add(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Int { lo, hi, scale },
            default: ParamValue::Int(default),
        })
    }

    /// Add a float tunable.
    pub fn add_float(&mut self, name: &str, lo: f64, hi: f64, default: f64) -> ParamId {
        assert!(
            lo <= hi && default >= lo && default <= hi,
            "bad float domain"
        );
        self.add(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Float { lo, hi },
            default: ParamValue::Float(default),
        })
    }

    /// Declare that `param` depends on `on` (tune `on` earlier).
    pub fn add_dependency(&mut self, param: ParamId, on: ParamId) {
        assert!(param.0 < self.params.len() && on.0 < self.params.len());
        self.deps.push((param.0, on.0));
    }

    /// Dependency edges `(dependent, dependency)`.
    pub fn dependencies(&self) -> &[(usize, usize)] {
        &self.deps
    }

    /// The all-defaults configuration.
    pub fn default_config(&self) -> Config {
        Config {
            values: self.params.iter().map(|p| p.default).collect(),
        }
    }

    /// Validate a value against a parameter's domain.
    pub fn validate(&self, id: ParamId, value: ParamValue) -> Result<(), ConfigError> {
        let spec = &self.params[id.0];
        let bad = |reason: &str| {
            Err(ConfigError::Invalid {
                param: spec.name.clone(),
                reason: reason.to_string(),
            })
        };
        match (&spec.kind, value) {
            (ParamKind::Switch { choices }, ParamValue::Switch(i)) => {
                if i < choices.len() {
                    Ok(())
                } else {
                    bad("switch index out of range")
                }
            }
            (ParamKind::Int { lo, hi, .. }, ParamValue::Int(v)) => {
                if (*lo..=*hi).contains(&v) {
                    Ok(())
                } else {
                    bad("integer out of range")
                }
            }
            (ParamKind::Float { lo, hi }, ParamValue::Float(v)) => {
                if v >= *lo && v <= *hi && v.is_finite() {
                    Ok(())
                } else {
                    bad("float out of range")
                }
            }
            _ => bad("kind mismatch"),
        }
    }
}

/// A concrete assignment of every parameter in a space.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    values: Vec<ParamValue>,
}

impl Config {
    /// Raw values (index-aligned with the space).
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Read a switch value.
    ///
    /// # Panics
    /// Panics if the parameter is not a switch.
    pub fn switch(&self, id: ParamId) -> usize {
        match self.values[id.0] {
            ParamValue::Switch(i) => i,
            other => panic!("parameter {id:?} is not a switch (got {other:?})"),
        }
    }

    /// Read an integer value.
    ///
    /// # Panics
    /// Panics if the parameter is not an int.
    pub fn int(&self, id: ParamId) -> i64 {
        match self.values[id.0] {
            ParamValue::Int(v) => v,
            other => panic!("parameter {id:?} is not an int (got {other:?})"),
        }
    }

    /// Read a float value.
    ///
    /// # Panics
    /// Panics if the parameter is not a float.
    pub fn float(&self, id: ParamId) -> f64 {
        match self.values[id.0] {
            ParamValue::Float(v) => v,
            other => panic!("parameter {id:?} is not a float (got {other:?})"),
        }
    }

    /// Set a value after validating against `space`.
    pub fn set(
        &mut self,
        space: &ConfigSpace,
        id: ParamId,
        value: ParamValue,
    ) -> Result<(), ConfigError> {
        space.validate(id, value)?;
        self.values[id.0] = value;
        Ok(())
    }

    /// Serialize to the PetaBricks-style name→value JSON object.
    pub fn to_json(&self, space: &ConfigSpace) -> String {
        let map: BTreeMap<&str, ParamValue> = space
            .specs()
            .iter()
            .zip(&self.values)
            .map(|(s, v)| (s.name.as_str(), *v))
            .collect();
        serde_json::to_string_pretty(&map).expect("config serialization cannot fail")
    }

    /// Parse from JSON, validating every entry against `space`. Missing
    /// parameters take their defaults; unknown names are errors.
    pub fn from_json(space: &ConfigSpace, json: &str) -> Result<Config, ConfigError> {
        let map: BTreeMap<String, serde_json::Value> =
            serde_json::from_str(json).map_err(|e| ConfigError::Io(e.to_string()))?;
        let mut cfg = space.default_config();
        for (name, raw) in map {
            let id = space
                .find(&name)
                .ok_or_else(|| ConfigError::UnknownParam(name.clone()))?;
            let value = match (&space.spec(id).kind, &raw) {
                (ParamKind::Switch { .. }, serde_json::Value::Number(n)) => {
                    ParamValue::Switch(n.as_u64().ok_or_else(|| ConfigError::Invalid {
                        param: name.clone(),
                        reason: "expected unsigned index".into(),
                    })? as usize)
                }
                (ParamKind::Int { .. }, serde_json::Value::Number(n)) => {
                    ParamValue::Int(n.as_i64().ok_or_else(|| ConfigError::Invalid {
                        param: name.clone(),
                        reason: "expected integer".into(),
                    })?)
                }
                (ParamKind::Float { .. }, serde_json::Value::Number(n)) => {
                    ParamValue::Float(n.as_f64().ok_or_else(|| ConfigError::Invalid {
                        param: name.clone(),
                        reason: "expected float".into(),
                    })?)
                }
                _ => {
                    return Err(ConfigError::Invalid {
                        param: name.clone(),
                        reason: "expected a number".into(),
                    })
                }
            };
            cfg.set(space, id, value)?;
        }
        Ok(cfg)
    }

    /// Write to a file (JSON).
    pub fn save(&self, space: &ConfigSpace, path: &std::path::Path) -> Result<(), ConfigError> {
        std::fs::write(path, self.to_json(space)).map_err(|e| ConfigError::Io(e.to_string()))
    }

    /// Load from a file (JSON).
    pub fn load(space: &ConfigSpace, path: &std::path::Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Io(e.to_string()))?;
        Config::from_json(space, &text)
    }
}

/// Name of the band-height axis in [`kernel_exec_space`].
pub const PARAM_BAND_ROWS: &str = "band_rows";
/// Name of the temporal-block-depth axis in [`kernel_exec_space`].
pub const PARAM_TBLOCK: &str = "tblock";
/// Name of the vectorization axis in [`kernel_exec_space`].
pub const PARAM_SIMD: &str = "simd";

/// Typed view of a [`kernel_exec_space`] configuration.
///
/// All three knobs are pure performance axes: the grid kernels
/// guarantee bitwise identical results for every setting (including
/// scalar vs vector — see `petamg_grid::simd`), so the tuner can
/// search them freely without re-validating accuracy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelKnobs {
    /// Rows per block-cursor band (`Exec::with_band` in `petamg-grid`).
    pub band_rows: usize,
    /// SOR sweeps fused per wavefront traversal
    /// (`petamg_solvers::fused`).
    pub tblock: usize,
    /// Scalar-vs-vector row-kernel path (`Exec::with_simd`). Part of
    /// knob-table schema version 2, the only version
    /// [`KnobTable::validate`] accepts.
    pub simd: SimdPolicy,
}

impl KernelKnobs {
    /// Extract the knobs from a configuration of [`kernel_exec_space`]
    /// (or any space containing the three named axes).
    ///
    /// # Panics
    /// Panics if any axis is missing from `space`.
    pub fn from_config(space: &ConfigSpace, config: &Config) -> Self {
        let band = space
            .find(PARAM_BAND_ROWS)
            .expect("space lacks the band_rows axis");
        let tblock = space
            .find(PARAM_TBLOCK)
            .expect("space lacks the tblock axis");
        let simd = space.find(PARAM_SIMD).expect("space lacks the simd axis");
        KernelKnobs {
            band_rows: config.int(band).max(1) as usize,
            tblock: config.int(tblock).max(1) as usize,
            simd: SimdPolicy::from_index(config.switch(simd)),
        }
    }
}

impl Default for KernelKnobs {
    fn default() -> Self {
        KernelKnobs {
            band_rows: 32,
            tblock: 1,
            simd: SimdPolicy::Auto,
        }
    }
}

/// Schema version of serialized [`KnobTable`]s (band, tblock and simd
/// per level). [`KnobTable::validate`] rejects any other version.
pub const KNOB_TABLE_VERSION: u32 = 2;

/// A per-level table of tuned [`KernelKnobs`]: entry `k` holds the
/// knobs for multigrid level `k` (grid `2^k + 1`). Index 0 is unused
/// padding, mirroring the DP tuner's `plans` table.
///
/// The paper's central mechanism is a *per level and per problem size*
/// choice; this table extends that from algorithms to the
/// kernel-execution knobs, so a tuned plan can run coarse levels with
/// short bands (cache-resident rows) and fine levels with tall bands
/// and deeper temporal blocking. Every entry is a pure performance
/// setting — execution is bitwise identical for any table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobTable {
    /// Serialized-schema version (see [`KNOB_TABLE_VERSION`]).
    pub version: u32,
    /// `per_level[k]` = knobs for level `k`; `per_level[0]` is padding.
    pub per_level: Vec<KernelKnobs>,
}

impl KnobTable {
    /// A table holding `knobs` at every level `0..=max_level`.
    pub fn uniform(max_level: usize, knobs: KernelKnobs) -> Self {
        KnobTable {
            version: KNOB_TABLE_VERSION,
            per_level: vec![knobs; max_level + 1],
        }
    }

    /// The all-defaults table (the pre-table global behaviour).
    pub fn defaults(max_level: usize) -> Self {
        Self::uniform(max_level, KernelKnobs::default())
    }

    /// Largest level the table covers.
    pub fn max_level(&self) -> usize {
        self.per_level.len().saturating_sub(1)
    }

    /// The knobs for `level`, clamping out-of-range levels to the
    /// finest tabulated entry (or the defaults for an empty table), so
    /// executors never panic on plans deeper than the table.
    pub fn get(&self, level: usize) -> KernelKnobs {
        match self.per_level.get(level) {
            Some(k) => *k,
            None => self.per_level.last().copied().unwrap_or_default(),
        }
    }

    /// Set the knobs for `level`, growing the table with defaults if
    /// needed.
    pub fn set(&mut self, level: usize, knobs: KernelKnobs) {
        if level >= self.per_level.len() {
            self.per_level.resize(level + 1, KernelKnobs::default());
        }
        self.per_level[level] = knobs;
    }

    /// Whether every entry equals every other (the table degenerates to
    /// a single global setting).
    pub fn is_uniform(&self) -> bool {
        self.per_level.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether every entry is the global default — i.e. the table
    /// carries no tuning at all. Executors use this to avoid overriding
    /// a caller's hand-configured policy with an untuned table.
    pub fn is_all_default(&self) -> bool {
        self.per_level.iter().all(|k| *k == KernelKnobs::default())
    }

    /// Structural validation: current version, non-empty, and every entry
    /// inside the [`kernel_exec_space`] domains (read from the space
    /// itself, so widening an axis there widens what tables accept).
    pub fn validate(&self) -> Result<(), String> {
        if self.version != KNOB_TABLE_VERSION {
            return Err(format!(
                "unsupported knob-table version {} (expected {KNOB_TABLE_VERSION})",
                self.version
            ));
        }
        if self.per_level.is_empty() {
            return Err("knob table has no levels".into());
        }
        let space = kernel_exec_space();
        let (band_lo, band_hi) = space.int_domain(PARAM_BAND_ROWS).expect("band axis");
        let (tblock_lo, tblock_hi) = space.int_domain(PARAM_TBLOCK).expect("tblock axis");
        for (k, knobs) in self.per_level.iter().enumerate() {
            let band_ok = (band_lo..=band_hi).contains(&(knobs.band_rows as i64));
            let tblock_ok = (tblock_lo..=tblock_hi).contains(&(knobs.tblock as i64));
            if !band_ok || !tblock_ok {
                return Err(format!(
                    "level {k}: knobs {knobs:?} outside the kernel_exec_space domain"
                ));
            }
        }
        Ok(())
    }
}

/// The kernel-execution tuning space: the block-cursor **band height**
/// and the **temporal-block depth** of the fused multigrid kernels —
/// "block sizes" in PetaBricks terms (§3.2.2), which the Kernel Tuning
/// Toolkit and empirical QR autotuning literature likewise treat as
/// first-class tuning dimensions.
///
/// `tblock` depends on `band_rows` (the band must be chosen before the
/// temporal depth can be judged: deeper blocking enlarges each band's
/// recomputed halo), so [`tuning_order`] yields `band_rows` first.
pub fn kernel_exec_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    let band = s.add_int(PARAM_BAND_ROWS, 1, 512, 32, Scale::Log);
    let tblock = s.add_int(PARAM_TBLOCK, 1, 8, 1, Scale::Log);
    s.add_dependency(tblock, band);
    // The vectorization axis: auto / scalar / forced-vector, labels
    // index-aligned with `SimdPolicy::ALL`. Band and tblock depend on
    // it (a vectorized kernel moves more data per row, shifting the
    // band/tblock sweet spots), so it is tuned first.
    let simd = s.add_switch(PARAM_SIMD, &["auto", "scalar", "vector"], 0);
    s.add_dependency(band, simd);
    s
}

/// Name of the operator-family axis in [`problem_space`].
pub const PARAM_PROBLEM: &str = "problem";

/// Labels of the canonical operator profiles, index-aligned with the
/// `problem` switch axis of [`problem_space`] and with the named
/// `Problem` constructors in `petamg-problems` (`poisson`,
/// `smooth_sinusoidal`, `jump_inclusion`, `anisotropic_canonical`).
pub const PROBLEM_FAMILY_LABELS: [&str; 4] = ["poisson", "smooth", "jump1000", "aniso0.01"];

/// The **operator axis** of the search space: which PDE is posed.
///
/// Unlike the kernel-execution knobs this is not a free tuning variable
/// — the *user* poses the problem — but it is a first-class dimension
/// of the plan library: tuned plans are stored and looked up per
/// `(problem, machine, accuracy)`. Every kernel knob depends on it: changing
/// the operator changes the per-row flop/byte mix, so band, tblock, and
/// simd sweet spots must be re-searched per problem, exactly as the
/// per-workload re-tuning literature (KTT, sustainable autotuning)
/// prescribes.
pub fn problem_space() -> ConfigSpace {
    // Built *on* kernel_exec_space so the knob axes (names, domains,
    // defaults, and the band→simd / tblock→band dependencies) can never
    // drift from the per-level knob tuner's space; this only adds the
    // operator switch and makes the knobs depend on it.
    let mut s = kernel_exec_space();
    let problem = s.add_switch(PARAM_PROBLEM, &PROBLEM_FAMILY_LABELS, 0);
    let band = s.find(PARAM_BAND_ROWS).expect("kernel space has band");
    let simd = s.find(PARAM_SIMD).expect("kernel space has simd");
    s.add_dependency(simd, problem);
    s.add_dependency(band, problem);
    s
}

/// Compute the tuning order: strongly-connected components of the
/// dependency graph in topological order (dependencies first). Parameters
/// in the same component are tuned together — "if there are cycles in
/// the dependency graph, it tunes all parameters in the cycle in
/// parallel" (§3.2.2). Parameters with no edges come last, each alone.
pub fn tuning_order(space: &ConfigSpace) -> Vec<Vec<ParamId>> {
    let n = space.len();
    // Tarjan SCC on edges dependent -> dependency.
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in space.dependencies() {
        adj[a].push(b);
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut counter = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan to avoid recursion depth issues.
    #[derive(Clone)]
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(start)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut ei) => {
                    let mut descended = false;
                    while ei < adj[v].len() {
                        let w = adj[v][ei];
                        ei += 1;
                        if index[w] == usize::MAX {
                            call.push(Frame::Resume(v, ei));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All children done: fold lowlinks of completed kids.
                    for &w in &adj[v] {
                        if on_stack[w] {
                            low[v] = low[v].min(low[w]);
                        }
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        comps.push(comp);
                    }
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order of the
    // condensation w.r.t. edges dependent -> dependency, i.e.
    // dependencies (sinks) come FIRST — exactly the tuning order.
    comps
        .into_iter()
        .map(|c| c.into_iter().map(ParamId).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add_switch("algo", &["direct", "iterative", "recursive"], 0);
        s.add_int("cutoff", 1, 1024, 64, Scale::Log);
        s.add_float("omega", 0.5, 1.95, 1.15);
        s
    }

    #[test]
    fn default_config_matches_specs() {
        let s = sample_space();
        let c = s.default_config();
        assert_eq!(c.switch(s.find("algo").unwrap()), 0);
        assert_eq!(c.int(s.find("cutoff").unwrap()), 64);
        assert!((c.float(s.find("omega").unwrap()) - 1.15).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_out_of_domain() {
        let s = sample_space();
        let mut c = s.default_config();
        let algo = s.find("algo").unwrap();
        assert!(c.set(&s, algo, ParamValue::Switch(5)).is_err());
        assert!(c.set(&s, algo, ParamValue::Int(1)).is_err()); // kind mismatch
        let cutoff = s.find("cutoff").unwrap();
        assert!(c.set(&s, cutoff, ParamValue::Int(4096)).is_err());
        assert!(c.set(&s, cutoff, ParamValue::Int(512)).is_ok());
        let omega = s.find("omega").unwrap();
        assert!(c.set(&s, omega, ParamValue::Float(f64::NAN)).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_rejected() {
        let mut s = ConfigSpace::new();
        s.add_int("x", 0, 1, 0, Scale::Linear);
        s.add_int("x", 0, 1, 0, Scale::Linear);
    }

    #[test]
    fn json_roundtrip() {
        let s = sample_space();
        let mut c = s.default_config();
        c.set(&s, s.find("algo").unwrap(), ParamValue::Switch(2))
            .unwrap();
        c.set(&s, s.find("cutoff").unwrap(), ParamValue::Int(128))
            .unwrap();
        let json = c.to_json(&s);
        let c2 = Config::from_json(&s, &json).unwrap();
        assert_eq!(c2.switch(s.find("algo").unwrap()), 2);
        assert_eq!(c2.int(s.find("cutoff").unwrap()), 128);
    }

    #[test]
    fn json_unknown_param_rejected() {
        let s = sample_space();
        assert!(matches!(
            Config::from_json(&s, r#"{"bogus": 1}"#),
            Err(ConfigError::UnknownParam(_))
        ));
    }

    #[test]
    fn json_missing_params_default() {
        let s = sample_space();
        let c = Config::from_json(&s, r#"{"cutoff": 32}"#).unwrap();
        assert_eq!(c.int(s.find("cutoff").unwrap()), 32);
        assert_eq!(c.switch(s.find("algo").unwrap()), 0);
    }

    #[test]
    fn file_roundtrip() {
        let s = sample_space();
        let c = s.default_config();
        let dir = std::env::temp_dir().join("petamg-choice-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        c.save(&s, &path).unwrap();
        let c2 = Config::load(&s, &path).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn problem_space_orders_operator_axis_first() {
        // The operator axis is the outermost dimension: every kernel
        // knob depends on it, so the tuning order resolves the posed
        // problem before any knob is searched.
        let s = problem_space();
        let order = tuning_order(&s);
        let problem = s.find(PARAM_PROBLEM).unwrap();
        assert_eq!(order[0], vec![problem], "problem axis tunes first");
        let spec = s.spec(problem);
        match &spec.kind {
            ParamKind::Switch { choices } => {
                assert_eq!(choices.len(), PROBLEM_FAMILY_LABELS.len());
                assert!(choices.iter().any(|c| c == "jump1000"));
            }
            other => panic!("problem axis must be a switch, got {other:?}"),
        }
        // The knob axes are all present and downstream of the operator.
        for name in [PARAM_SIMD, PARAM_BAND_ROWS, PARAM_TBLOCK] {
            let id = s.find(name).unwrap();
            let pos = order.iter().position(|g| g.contains(&id)).unwrap();
            assert!(pos > 0, "{name} must tune after the problem axis");
        }
    }

    #[test]
    fn tuning_order_leaves_first() {
        let mut s = ConfigSpace::new();
        let a = s.add_int("a", 0, 9, 0, Scale::Linear);
        let b = s.add_int("b", 0, 9, 0, Scale::Linear);
        let c = s.add_int("c", 0, 9, 0, Scale::Linear);
        // a depends on b; b depends on c => order: [c], [b], [a]
        s.add_dependency(a, b);
        s.add_dependency(b, c);
        let order = tuning_order(&s);
        assert_eq!(order, vec![vec![c], vec![b], vec![a]]);
    }

    #[test]
    fn tuning_order_groups_cycles() {
        let mut s = ConfigSpace::new();
        let a = s.add_int("a", 0, 9, 0, Scale::Linear);
        let b = s.add_int("b", 0, 9, 0, Scale::Linear);
        let c = s.add_int("c", 0, 9, 0, Scale::Linear);
        // a <-> b cycle; both depend on c.
        s.add_dependency(a, b);
        s.add_dependency(b, a);
        s.add_dependency(a, c);
        let order = tuning_order(&s);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], vec![c]);
        assert_eq!(order[1], vec![a, b]);
    }

    #[test]
    fn kernel_exec_space_axes_and_order() {
        let s = kernel_exec_space();
        let knobs = KernelKnobs::from_config(&s, &s.default_config());
        assert_eq!(knobs, KernelKnobs::default());
        // band_rows is tuned before tblock (tblock depends on it).
        let order = tuning_order(&s);
        let band = s.find(PARAM_BAND_ROWS).unwrap();
        let tblock = s.find(PARAM_TBLOCK).unwrap();
        let pos = |p: ParamId| order.iter().position(|g| g.contains(&p)).unwrap();
        assert!(pos(band) < pos(tblock), "band must be tuned first");
        // Both axes are Log-scaled ints with sane domains.
        for name in [PARAM_BAND_ROWS, PARAM_TBLOCK] {
            let id = s.find(name).unwrap();
            match &s.spec(id).kind {
                ParamKind::Int { lo, scale, .. } => {
                    assert_eq!(*lo, 1, "{name} must allow the degenerate baseline");
                    assert_eq!(*scale, Scale::Log);
                }
                other => panic!("{name} has wrong kind {other:?}"),
            }
        }
    }

    #[test]
    fn kernel_knobs_roundtrip_through_json() {
        let s = kernel_exec_space();
        let mut c = s.default_config();
        c.set(&s, s.find(PARAM_BAND_ROWS).unwrap(), ParamValue::Int(64))
            .unwrap();
        c.set(&s, s.find(PARAM_TBLOCK).unwrap(), ParamValue::Int(4))
            .unwrap();
        c.set(&s, s.find(PARAM_SIMD).unwrap(), ParamValue::Switch(2))
            .unwrap();
        let c2 = Config::from_json(&s, &c.to_json(&s)).unwrap();
        let knobs = KernelKnobs::from_config(&s, &c2);
        assert_eq!(
            knobs,
            KernelKnobs {
                band_rows: 64,
                tblock: 4,
                simd: SimdPolicy::Vector,
            }
        );
    }

    #[test]
    fn knob_table_get_set_and_clamp() {
        let mut t = KnobTable::defaults(4);
        assert_eq!(t.max_level(), 4);
        assert!(t.is_uniform());
        let coarse = KernelKnobs {
            band_rows: 4,
            tblock: 2,
            simd: SimdPolicy::Auto,
        };
        t.set(2, coarse);
        assert!(!t.is_uniform());
        assert_eq!(t.get(2), coarse);
        assert_eq!(t.get(4), KernelKnobs::default());
        // Out-of-range levels clamp to the finest tabulated entry.
        t.set(4, coarse);
        assert_eq!(t.get(99), coarse);
        // set() grows the table as needed.
        t.set(6, KernelKnobs::default());
        assert_eq!(t.max_level(), 6);
        assert_eq!(t.get(5), KernelKnobs::default());
        t.validate().unwrap();
    }

    #[test]
    fn knob_table_default_detection() {
        let mut t = KnobTable::defaults(3);
        assert!(t.is_all_default(), "fresh table carries no tuning");
        t.set(
            2,
            KernelKnobs {
                band_rows: 8,
                tblock: 1,
                simd: SimdPolicy::Auto,
            },
        );
        assert!(!t.is_all_default());
        // Uniform but non-default: still real tuning.
        let u = KnobTable::uniform(
            3,
            KernelKnobs {
                band_rows: 64,
                tblock: 2,
                simd: SimdPolicy::Auto,
            },
        );
        assert!(u.is_uniform() && !u.is_all_default());
    }

    #[test]
    fn knob_table_validation_rejects_bad_entries() {
        let mut t = KnobTable::defaults(3);
        for version in [KNOB_TABLE_VERSION - 1, KNOB_TABLE_VERSION + 1] {
            t.version = version;
            assert!(t.validate().is_err(), "version {version} rejected");
        }

        let mut t = KnobTable::defaults(3);
        t.per_level[1] = KernelKnobs {
            band_rows: 0,
            tblock: 1,
            simd: SimdPolicy::Auto,
        };
        assert!(t.validate().is_err(), "zero band rejected");

        let mut t = KnobTable::defaults(3);
        t.per_level[2] = KernelKnobs {
            band_rows: 1024,
            tblock: 1,
            simd: SimdPolicy::Auto,
        };
        assert!(t.validate().is_err(), "out-of-domain band rejected");

        let t = KnobTable {
            version: KNOB_TABLE_VERSION,
            per_level: Vec::new(),
        };
        assert!(t.validate().is_err(), "empty table rejected");
    }

    #[test]
    fn knob_table_serde_roundtrip() {
        let mut t = KnobTable::defaults(3);
        t.set(
            3,
            KernelKnobs {
                band_rows: 64,
                tblock: 4,
                simd: SimdPolicy::Auto,
            },
        );
        let json = serde_json::to_string_pretty(&t).unwrap();
        assert!(json.contains("\"version\""), "schema is versioned: {json}");
        let back: KnobTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn kernel_exec_space_simd_axis() {
        let s = kernel_exec_space();
        let simd = s.find(PARAM_SIMD).expect("simd axis exists");
        match &s.spec(simd).kind {
            ParamKind::Switch { choices } => {
                let want: Vec<&str> = SimdPolicy::ALL.iter().map(|p| p.name()).collect();
                assert_eq!(choices, &want, "labels index-aligned with SimdPolicy::ALL");
            }
            other => panic!("simd axis has wrong kind {other:?}"),
        }
        // simd is tuned before band (band depends on it), which is
        // tuned before tblock.
        let order = tuning_order(&s);
        let pos = |name: &str| {
            let id = s.find(name).unwrap();
            order.iter().position(|g| g.contains(&id)).unwrap()
        };
        assert!(pos(PARAM_SIMD) < pos(PARAM_BAND_ROWS));
        assert!(pos(PARAM_BAND_ROWS) < pos(PARAM_TBLOCK));
        // Default config resolves to the default knobs (simd = Auto).
        let knobs = KernelKnobs::from_config(&s, &s.default_config());
        assert_eq!(knobs, KernelKnobs::default());
        assert_eq!(knobs.simd, SimdPolicy::Auto);
    }

    #[test]
    fn tuning_order_independent_params() {
        let s = sample_space();
        let order = tuning_order(&s);
        assert_eq!(order.len(), 3);
        let flat: Vec<usize> = order.iter().flatten().map(|p| p.0).collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
