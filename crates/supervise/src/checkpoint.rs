//! Versioned on-disk checkpoints for matrix runs.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/manifest.json   — version, label, master seed, cell ids
//! <dir>/cells/<id>.json — one file per *completed* cell (atomic)
//! <dir>/cache.json      — exploration-cache snapshot (atomic)
//! ```
//!
//! Every file is written to a `.tmp` sibling and renamed into place, so
//! a checkpoint directory is consistent at all times: killing the
//! process mid-write loses at most the cell being written, never a
//! completed one. Cell files round-trip the *full* [`CheckReport`] —
//! verdicts, replay-validated counterexamples, and every
//! [`QueryStats`] field — so a resumed run reports completed cells
//! byte-identically to the uninterrupted run.
//!
//! Numbers that may exceed 2^53 (the automaton fingerprint, the master
//! seed) are stored as decimal strings; `f64` fields use Rust's
//! shortest round-tripping `Display`, never the bench emitter's
//! 3-decimal rounding.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use holistic_checker::{
    CeStep, CheckReport, Counterexample, ExplorationSnapshot, QueryReport, QueryStats, Strategy,
    Verdict,
};
use holistic_core::json::{num_exact, quote, Json, Writer};
use holistic_lia::SolverStats;
use holistic_ta::{Config, RuleId};

use crate::failure::{FailureKind, Rung};

/// The on-disk format version; bumped on any incompatible change.
/// Version 2 added learned core patterns to exploration snapshots and
/// the core-extraction counters to solver/query statistics.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Errors from opening or reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file failed to parse or had an unexpected shape.
    Malformed(String),
    /// The manifest's version or cell list does not match this run.
    Incompatible(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// The checkpoint manifest: what run this directory belongs to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Human label of the run (e.g. `table2`).
    pub label: String,
    /// The run's master seed (retries and the simulation rung derive
    /// their RNG streams from it, so a resumed run replays them).
    pub master_seed: u64,
    /// Cell ids of the full matrix, in job order.
    pub cells: Vec<String>,
}

/// One completed cell, exactly as it will be reported.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// The cell's stable id (also its file name, sanitized).
    pub id: String,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u64,
    /// The ladder rung that produced the verdict.
    pub rung: Rung,
    /// Why full verification failed, for non-definite verdicts.
    pub failure: Option<FailureKind>,
    /// Free-form degradation detail (e.g. the simulation outcome).
    pub note: Option<String>,
    /// The full per-query report.
    pub report: CheckReport,
}

/// A handle to a checkpoint directory.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    dir: PathBuf,
}

impl Checkpoint {
    /// Creates (or re-manifests) a checkpoint directory for a run.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(
        dir: &Path,
        label: &str,
        master_seed: u64,
        cells: &[String],
    ) -> Result<Checkpoint, CheckpointError> {
        fs::create_dir_all(dir.join("cells"))?;
        let cp = Checkpoint {
            dir: dir.to_path_buf(),
        };
        let mut w = Writer::pretty();
        w.begin_obj()
            .field_u64("version", CHECKPOINT_VERSION)
            .field_str("label", label)
            .field_str("master_seed", &master_seed.to_string())
            .key("cells")
            .begin_arr();
        for id in cells {
            w.str_value(id);
        }
        w.end_arr().end_obj();
        cp.write_atomic(&cp.dir.join("manifest.json"), &w.finish())?;
        Ok(cp)
    }

    /// Opens an existing checkpoint and returns its manifest.
    ///
    /// # Errors
    ///
    /// Fails if the directory has no parsable manifest or the version
    /// is from a different format generation.
    pub fn open(dir: &Path) -> Result<(Checkpoint, Manifest), CheckpointError> {
        let raw = fs::read_to_string(dir.join("manifest.json"))?;
        let json = Json::parse(&raw).map_err(CheckpointError::Malformed)?;
        let version = get_u64_number(&json, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint version {version}, this binary writes {CHECKPOINT_VERSION}"
            )));
        }
        let manifest = Manifest {
            version,
            label: get_str(&json, "label")?.to_owned(),
            master_seed: get_u64_string(&json, "master_seed")?,
            cells: json
                .get("cells")
                .and_then(Json::as_array)
                .ok_or_else(|| CheckpointError::Malformed("manifest cells".into()))?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| CheckpointError::Malformed("cell id".into()))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok((
            Checkpoint {
                dir: dir.to_path_buf(),
            },
            manifest,
        ))
    }

    /// The directory this checkpoint lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically records a completed cell.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn record_cell(&self, record: &CellRecord) -> Result<(), CheckpointError> {
        let path = self.dir.join("cells").join(cell_file_name(&record.id));
        self.write_atomic(&path, &cell_to_json(record))
    }

    /// Loads every completed cell present in the checkpoint. Unparsable
    /// cell files are reported as errors (a corrupt checkpoint should
    /// not silently rerun work).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and malformed cell files.
    pub fn load_cells(&self) -> Result<Vec<CellRecord>, CheckpointError> {
        let mut out = Vec::new();
        let dir = self.dir.join("cells");
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        entries.sort();
        for path in entries {
            let raw = fs::read_to_string(&path)?;
            let json = Json::parse(&raw)
                .map_err(|e| CheckpointError::Malformed(format!("{}: {e}", path.display())))?;
            out.push(cell_from_json(&json)?);
        }
        Ok(out)
    }

    /// Atomically saves an exploration-cache snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_cache(&self, snapshots: &[ExplorationSnapshot]) -> Result<(), CheckpointError> {
        let mut w = Writer::pretty();
        w.begin_obj()
            .field_u64("version", CHECKPOINT_VERSION)
            .key("explorations")
            .begin_arr();
        for s in snapshots {
            w.begin_obj()
                .field_str("automaton", &s.automaton.to_string())
                .field_raw("globally_empty", &usize_array(&s.globally_empty))
                .field_str("initially", &s.initially)
                .field_u64("copies", s.copies as u64)
                .field_bool("complete", s.complete)
                .field_raw("feasible", &chains_array(&s.feasible))
                .field_raw("infeasible", &chains_array(&s.infeasible))
                .field_raw("cores", &cores_array(&s.cores))
                .end_obj();
        }
        w.end_arr().end_obj();
        self.write_atomic(&self.dir.join("cache.json"), &w.finish())
    }

    /// Loads the exploration-cache snapshot, if one was saved.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and malformed snapshots.
    pub fn load_cache(&self) -> Result<Vec<ExplorationSnapshot>, CheckpointError> {
        let path = self.dir.join("cache.json");
        let raw = match fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let json = Json::parse(&raw).map_err(CheckpointError::Malformed)?;
        let mut out = Vec::new();
        for e in json
            .get("explorations")
            .and_then(Json::as_array)
            .ok_or_else(|| CheckpointError::Malformed("cache explorations".into()))?
        {
            out.push(ExplorationSnapshot {
                automaton: get_u64_string(e, "automaton")?,
                globally_empty: get_usize_array(e, "globally_empty")?,
                initially: get_str(e, "initially")?.to_owned(),
                copies: get_u64_number(e, "copies")? as usize,
                complete: get_bool(e, "complete")?,
                feasible: get_chains(e, "feasible")?,
                infeasible: get_chains(e, "infeasible")?,
                cores: get_cores(e, "cores")?,
            });
        }
        Ok(out)
    }

    fn write_atomic(&self, path: &Path, body: &str) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, body)?;
        fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Sanitizes a cell id into a file name: alphanumerics, `-`, `.` and
/// `_` pass through; everything else becomes `_`.
fn cell_file_name(id: &str) -> String {
    let sanitized: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{sanitized}.json")
}

// ---------------------------------------------------------------- emit

fn usize_array(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn i64_array(xs: &[i64]) -> String {
    let items: Vec<String> = xs.iter().map(i64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn chains_array(chains: &[Vec<u64>]) -> String {
    let items: Vec<String> = chains.iter().map(|c| u64_array(c)).collect();
    format!("[{}]", items.join(","))
}

/// Core patterns `(mask, held, delta)` as an array of three-element
/// arrays, with the same number encoding (and the same sub-2^53
/// assumption) as the context masks inside feasible/infeasible chains.
fn cores_array(cores: &[(u64, u64, u64)]) -> String {
    let items: Vec<String> = cores
        .iter()
        .map(|&(m, h, d)| format!("[{m},{h},{d}]"))
        .collect();
    format!("[{}]", items.join(","))
}

fn duration_json(d: Duration) -> String {
    format!(
        "{{\"secs\": {}, \"nanos\": {}}}",
        d.as_secs(),
        d.subsec_nanos()
    )
}

fn config_json(c: &Config) -> String {
    format!(
        "{{\"counters\": {}, \"shared\": {}}}",
        i64_array(&c.counters),
        i64_array(&c.shared)
    )
}

fn verdict_json(v: &Verdict) -> String {
    match v {
        Verdict::Verified => "{\"kind\": \"verified\"}".to_owned(),
        Verdict::Unknown(msg) => {
            format!("{{\"kind\": \"unknown\", \"reason\": {}}}", quote(msg))
        }
        Verdict::Violated(ce) => {
            let steps: Vec<String> = ce
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"segment\": {}, \"rule\": {}, \"times\": {}}}",
                        s.segment, s.rule.0, s.times
                    )
                })
                .collect();
            let boundaries: Vec<String> = ce.boundaries.iter().map(config_json).collect();
            format!(
                "{{\"kind\": \"violated\", \"counterexample\": {{\"params\": {}, \
                 \"initial\": {}, \"steps\": [{}], \"boundaries\": [{}]}}}}",
                i64_array(&ce.params),
                config_json(&ce.initial),
                steps.join(","),
                boundaries.join(",")
            )
        }
    }
}

fn stats_json(s: &QueryStats) -> String {
    let mut w = Writer::compact();
    w.begin_obj()
        .field_u64("schemas", s.schemas as u64)
        .field_raw("avg_segments", &num_exact(s.avg_segments))
        .field_raw("duration", &duration_json(s.duration))
        .field_bool("capped", s.capped)
        .field_bool("timed_out", s.timed_out)
        .field_str("strategy", &s.strategy.to_string())
        .field_u64("cache_hits", s.cache_hits)
        .field_u64("cache_misses", s.cache_misses)
        .field_bool("replayed", s.replayed)
        .field_u64("cores_learned", s.cores_learned)
        .field_u64("schemas_pruned_by_core", s.schemas_pruned_by_core)
        .field_u64("threads", s.threads as u64)
        .key("solver")
        .begin_obj()
        .field_u64("checks", s.solver.checks)
        .field_u64("branch_nodes", s.solver.branch_nodes)
        .field_u64("case_splits", s.solver.case_splits)
        .field_u64("pivots", s.solver.pivots)
        .field_u64("intern_hits", s.solver.intern_hits)
        .field_u64("intern_misses", s.solver.intern_misses)
        .field_u64("cores_extracted", s.solver.cores_extracted)
        .field_u64("core_members", s.solver.core_members)
        .field_u64("core_micros", s.solver.core_micros)
        .field_u64("propagations", s.solver.propagations)
        .field_u64("propagation_refutations", s.solver.propagation_refutations)
        .field_u64("disjuncts_skipped", s.solver.disjuncts_skipped)
        .end_obj()
        .end_obj();
    w.finish()
}

fn cell_to_json(r: &CellRecord) -> String {
    let queries: Vec<String> = r
        .report
        .queries
        .iter()
        .map(|q| {
            format!(
                "    {{\"verdict\": {}, \"stats\": {}}}",
                verdict_json(&q.verdict),
                stats_json(&q.stats)
            )
        })
        .collect();
    let failure = match r.failure {
        Some(k) => quote(&k.to_string()),
        None => "null".to_owned(),
    };
    let note = match &r.note {
        Some(n) => quote(n),
        None => "null".to_owned(),
    };
    format!(
        "{{\n  \"version\": {CHECKPOINT_VERSION},\n  \"id\": {},\n  \"attempts\": {},\n  \
         \"rung\": {},\n  \"failure\": {failure},\n  \"note\": {note},\n  \
         \"duration\": {},\n  \"queries\": [\n{}\n  ]\n}}\n",
        quote(&r.id),
        r.attempts,
        quote(&r.rung.to_string()),
        duration_json(r.report.duration),
        queries.join(",\n")
    )
}

// --------------------------------------------------------------- parse

fn malformed(what: &str) -> CheckpointError {
    CheckpointError::Malformed(what.to_owned())
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, CheckpointError> {
    j.get(key).and_then(Json::as_str).ok_or(malformed(key))
}

fn get_bool(j: &Json, key: &str) -> Result<bool, CheckpointError> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(malformed(key)),
    }
}

fn get_f64(j: &Json, key: &str) -> Result<f64, CheckpointError> {
    j.get(key).and_then(Json::as_f64).ok_or(malformed(key))
}

/// A u64 stored as a JSON number (safe only below 2^53).
fn get_u64_number(j: &Json, key: &str) -> Result<u64, CheckpointError> {
    let x = get_f64(j, key)?;
    if x >= 0.0 && x.fract() == 0.0 {
        Ok(x as u64)
    } else {
        Err(malformed(key))
    }
}

/// A u64 stored as a decimal string (full 64-bit range).
fn get_u64_string(j: &Json, key: &str) -> Result<u64, CheckpointError> {
    get_str(j, key)?.parse().map_err(|_| malformed(key))
}

fn get_duration(j: &Json, key: &str) -> Result<Duration, CheckpointError> {
    let d = j.get(key).ok_or(malformed(key))?;
    Ok(Duration::new(
        get_u64_number(d, "secs")?,
        get_u64_number(d, "nanos")? as u32,
    ))
}

fn get_usize_array(j: &Json, key: &str) -> Result<Vec<usize>, CheckpointError> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or(malformed(key))?
        .iter()
        .map(|x| match x.as_f64() {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
            _ => Err(malformed(key)),
        })
        .collect()
}

fn get_i64_array(j: &Json, key: &str) -> Result<Vec<i64>, CheckpointError> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or(malformed(key))?
        .iter()
        .map(|x| match x.as_f64() {
            Some(v) if v.fract() == 0.0 => Ok(v as i64),
            _ => Err(malformed(key)),
        })
        .collect()
}

fn get_cores(j: &Json, key: &str) -> Result<Vec<(u64, u64, u64)>, CheckpointError> {
    get_chains(j, key)?
        .into_iter()
        .map(|entry| match entry[..] {
            [m, h, d] => Ok((m, h, d)),
            // Checkpoints from before held-conditioned patterns store
            // pairs; they are the unconditional `held = 0` case.
            [m, d] => Ok((m, 0, d)),
            _ => Err(malformed(key)),
        })
        .collect()
}

fn get_chains(j: &Json, key: &str) -> Result<Vec<Vec<u64>>, CheckpointError> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or(malformed(key))?
        .iter()
        .map(|chain| {
            chain
                .as_array()
                .ok_or(malformed(key))?
                .iter()
                .map(|x| match x.as_f64() {
                    Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
                    _ => Err(malformed(key)),
                })
                .collect()
        })
        .collect()
}

fn config_from(j: &Json) -> Result<Config, CheckpointError> {
    Ok(Config {
        counters: get_i64_array(j, "counters")?,
        shared: get_i64_array(j, "shared")?,
    })
}

fn verdict_from(j: &Json) -> Result<Verdict, CheckpointError> {
    match get_str(j, "kind")? {
        "verified" => Ok(Verdict::Verified),
        "unknown" => Ok(Verdict::Unknown(get_str(j, "reason")?.to_owned())),
        "violated" => {
            let ce = j.get("counterexample").ok_or(malformed("counterexample"))?;
            let steps = ce
                .get("steps")
                .and_then(Json::as_array)
                .ok_or(malformed("steps"))?
                .iter()
                .map(|s| {
                    Ok(CeStep {
                        segment: get_u64_number(s, "segment")? as usize,
                        rule: RuleId(get_u64_number(s, "rule")? as usize),
                        times: get_u64_number(s, "times")?,
                    })
                })
                .collect::<Result<_, CheckpointError>>()?;
            let boundaries = ce
                .get("boundaries")
                .and_then(Json::as_array)
                .ok_or(malformed("boundaries"))?
                .iter()
                .map(config_from)
                .collect::<Result<_, _>>()?;
            Ok(Verdict::Violated(Box::new(Counterexample {
                params: get_i64_array(ce, "params")?,
                initial: config_from(ce.get("initial").ok_or(malformed("initial"))?)?,
                steps,
                boundaries,
            })))
        }
        other => Err(CheckpointError::Malformed(format!(
            "unknown verdict kind {other:?}"
        ))),
    }
}

fn strategy_from(s: &str) -> Result<Strategy, CheckpointError> {
    match s {
        // Records written before `Strategy::Auto` was folded into
        // `Enumerate` (which it always ran) still resume.
        "auto" | "enumerate" => Ok(Strategy::Enumerate),
        "monolithic" => Ok(Strategy::Monolithic),
        other => Err(CheckpointError::Malformed(format!(
            "unknown strategy {other:?}"
        ))),
    }
}

fn stats_from(j: &Json) -> Result<QueryStats, CheckpointError> {
    let solver = j.get("solver").ok_or(malformed("solver"))?;
    Ok(QueryStats {
        schemas: get_u64_number(j, "schemas")? as usize,
        avg_segments: get_f64(j, "avg_segments")?,
        duration: get_duration(j, "duration")?,
        capped: get_bool(j, "capped")?,
        timed_out: get_bool(j, "timed_out")?,
        strategy: strategy_from(get_str(j, "strategy")?)?,
        solver: SolverStats {
            checks: get_u64_number(solver, "checks")?,
            branch_nodes: get_u64_number(solver, "branch_nodes")?,
            case_splits: get_u64_number(solver, "case_splits")?,
            pivots: get_u64_number(solver, "pivots")?,
            intern_hits: get_u64_number(solver, "intern_hits")?,
            intern_misses: get_u64_number(solver, "intern_misses")?,
            cores_extracted: get_u64_number(solver, "cores_extracted")?,
            core_members: get_u64_number(solver, "core_members")?,
            core_micros: get_u64_number(solver, "core_micros")?,
            // Absent in checkpoints written before the propagation
            // layer existed; resuming one is still valid.
            propagations: get_u64_number(solver, "propagations").unwrap_or(0),
            propagation_refutations: get_u64_number(solver, "propagation_refutations").unwrap_or(0),
            disjuncts_skipped: get_u64_number(solver, "disjuncts_skipped").unwrap_or(0),
        },
        cache_hits: get_u64_number(j, "cache_hits")?,
        cache_misses: get_u64_number(j, "cache_misses")?,
        replayed: get_bool(j, "replayed")?,
        cores_learned: get_u64_number(j, "cores_learned")?,
        schemas_pruned_by_core: get_u64_number(j, "schemas_pruned_by_core")?,
        threads: get_u64_number(j, "threads")? as usize,
    })
}

fn cell_from_json(j: &Json) -> Result<CellRecord, CheckpointError> {
    let version = get_u64_number(j, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Incompatible(format!(
            "cell version {version}"
        )));
    }
    let failure = match j.get("failure") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) => Some(
            FailureKind::parse(s)
                .ok_or_else(|| CheckpointError::Malformed(format!("failure kind {s:?}")))?,
        ),
        _ => return Err(malformed("failure")),
    };
    let note = match j.get("note") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) => Some(s.clone()),
        _ => return Err(malformed("note")),
    };
    let queries = j
        .get("queries")
        .and_then(Json::as_array)
        .ok_or(malformed("queries"))?
        .iter()
        .map(|q| {
            Ok(QueryReport {
                verdict: verdict_from(q.get("verdict").ok_or(malformed("verdict"))?)?,
                stats: stats_from(q.get("stats").ok_or(malformed("stats"))?)?,
            })
        })
        .collect::<Result<_, CheckpointError>>()?;
    Ok(CellRecord {
        id: get_str(j, "id")?.to_owned(),
        attempts: get_u64_number(j, "attempts")?,
        rung: Rung::parse(get_str(j, "rung")?).ok_or(malformed("rung"))?,
        failure,
        note,
        report: CheckReport {
            queries,
            duration: get_duration(j, "duration")?,
        },
    })
}

/// Whether two cell reports are equivalent for resume purposes: equal
/// verdicts (including full counterexamples) and equal stats in every
/// field except wall-clock durations.
pub fn reports_equivalent(a: &CheckReport, b: &CheckReport) -> bool {
    a.queries.len() == b.queries.len()
        && a.queries.iter().zip(&b.queries).all(|(x, y)| {
            format!("{:?}", x.verdict) == format!("{:?}", y.verdict)
                && stats_equivalent(&x.stats, &y.stats)
        })
}

/// [`QueryStats`] equality modulo wall-clock measurements: the
/// `duration` field and the solver's `core_micros` (the one timing
/// counter inside [`SolverStats`]).
pub fn stats_equivalent(a: &QueryStats, b: &QueryStats) -> bool {
    let solver_equivalent = {
        let (mut x, mut y) = (a.solver, b.solver);
        x.core_micros = 0;
        y.core_micros = 0;
        x == y
    };
    a.schemas == b.schemas
        && a.avg_segments == b.avg_segments
        && a.capped == b.capped
        && a.timed_out == b.timed_out
        && a.strategy == b.strategy
        && solver_equivalent
        && a.cache_hits == b.cache_hits
        && a.cache_misses == b.cache_misses
        && a.replayed == b.replayed
        && a.cores_learned == b.cores_learned
        && a.schemas_pruned_by_core == b.schemas_pruned_by_core
        && a.threads == b.threads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(id: &str) -> CellRecord {
        let ce = Counterexample {
            params: vec![4, 1, 1],
            initial: Config {
                counters: vec![3, 0, 0],
                shared: vec![0],
            },
            steps: vec![CeStep {
                segment: 0,
                rule: RuleId(2),
                times: 3,
            }],
            boundaries: vec![
                Config {
                    counters: vec![3, 0, 0],
                    shared: vec![0],
                },
                Config {
                    counters: vec![0, 3, 0],
                    shared: vec![1],
                },
            ],
        };
        CellRecord {
            id: id.to_owned(),
            attempts: 2,
            rung: Rung::DepthBounded,
            failure: Some(FailureKind::TimeBudget),
            note: Some("stepped down after \"timeout\"".to_owned()),
            report: CheckReport {
                queries: vec![
                    QueryReport {
                        verdict: Verdict::Violated(Box::new(ce)),
                        stats: QueryStats {
                            schemas: 7,
                            avg_segments: 13.0 / 3.0,
                            duration: Duration::from_millis(123),
                            capped: false,
                            timed_out: true,
                            strategy: Strategy::Enumerate,
                            solver: SolverStats {
                                checks: 11,
                                branch_nodes: 5,
                                case_splits: 2,
                                pivots: 999,
                                intern_hits: 1,
                                intern_misses: 4,
                                cores_extracted: 2,
                                core_members: 7,
                                core_micros: 314,
                                propagations: 21,
                                propagation_refutations: 6,
                                disjuncts_skipped: 9,
                            },
                            cache_hits: 3,
                            cache_misses: 4,
                            replayed: false,
                            cores_learned: 2,
                            schemas_pruned_by_core: 5,
                            threads: 1,
                        },
                    },
                    QueryReport {
                        verdict: Verdict::Unknown("worker panic: boom".to_owned()),
                        stats: QueryStats {
                            schemas: 0,
                            avg_segments: 0.1 + 0.2, // deliberately inexact
                            duration: Duration::ZERO,
                            capped: true,
                            timed_out: false,
                            strategy: Strategy::Enumerate,
                            solver: SolverStats::default(),
                            cache_hits: 0,
                            cache_misses: 0,
                            replayed: true,
                            cores_learned: 0,
                            schemas_pruned_by_core: 0,
                            threads: 8,
                        },
                    },
                ],
                duration: Duration::new(1, 999_999_999),
            },
        }
    }

    #[test]
    fn cell_record_round_trips_byte_identically() {
        let rec = sample_record("bv/BV-Just0");
        let json = cell_to_json(&rec);
        let back = cell_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.attempts, rec.attempts);
        assert_eq!(back.rung, rec.rung);
        assert_eq!(back.failure, rec.failure);
        assert_eq!(back.note, rec.note);
        assert_eq!(back.report.duration, rec.report.duration);
        assert!(reports_equivalent(&back.report, &rec.report));
        // Durations must round-trip exactly too (nanosecond fields).
        for (a, b) in back.report.queries.iter().zip(&rec.report.queries) {
            assert_eq!(a.stats.duration, b.stats.duration);
            // Bitwise f64 equality, not approximate.
            assert_eq!(
                a.stats.avg_segments.to_bits(),
                b.stats.avg_segments.to_bits()
            );
        }
    }

    #[test]
    fn checkpoint_files_survive_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "holistic-cp-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cells = vec!["a/one".to_owned(), "a/two".to_owned()];
        let cp = Checkpoint::create(&dir, "unit", u64::MAX - 7, &cells).unwrap();
        cp.record_cell(&sample_record("a/one")).unwrap();
        let snapshots = vec![ExplorationSnapshot {
            automaton: u64::MAX - 1, // exceeds 2^53: must survive as a string
            globally_empty: vec![1, 4],
            initially: "True".to_owned(),
            copies: 2,
            feasible: vec![vec![0], vec![0, 2]],
            infeasible: vec![vec![1]],
            cores: vec![(0, 0, 1), (2, 1, 4)],
            complete: true,
        }];
        cp.save_cache(&snapshots).unwrap();

        let (cp2, manifest) = Checkpoint::open(&dir).unwrap();
        assert_eq!(manifest.version, CHECKPOINT_VERSION);
        assert_eq!(manifest.label, "unit");
        assert_eq!(manifest.master_seed, u64::MAX - 7);
        assert_eq!(manifest.cells, cells);
        let loaded = cp2.load_cells().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].id, "a/one");
        assert_eq!(cp2.load_cache().unwrap(), snapshots);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two cell records exactly as the previous release wrote them:
    /// their solver blocks carry the since-removed `learned_conflicts`
    /// counter, and the rejected cell's synthetic report names the
    /// since-removed `"auto"` strategy.
    const V2_BV_JUST0: &str = r#"{
  "version": 2,
  "id": "bv/BV-Just0",
  "attempts": 1,
  "rung": "full",
  "failure": null,
  "note": null,
  "duration": {"secs": 0, "nanos": 3579317},
  "queries": [
    {"verdict": {"kind": "verified"}, "stats": {"schemas":4,"avg_segments":2,"duration":{"secs": 0, "nanos": 3566970},"capped":false,"timed_out":false,"strategy":"enumerate","cache_hits":6,"cache_misses":6,"replayed":false,"cores_learned":2,"schemas_pruned_by_core":10,"threads":1,"solver":{"checks":44,"branch_nodes":0,"case_splits":0,"pivots":76,"intern_hits":47,"intern_misses":50,"cores_extracted":2,"core_members":8,"core_micros":306,"propagations":154,"propagation_refutations":0,"learned_conflicts":0,"disjuncts_skipped":5}}}
  ]
}
"#;
    const V2_REJECTED: &str = r#"{
  "version": 2,
  "id": "bv/top-level-state",
  "attempts": 1,
  "rung": "full",
  "failure": "model-error",
  "note": "model rejected: formula shape outside the checkable fragment: <state> at top level",
  "duration": {"secs": 0, "nanos": 0},
  "queries": [
    {"verdict": {"kind": "unknown", "reason": "no full-strength report (model-error: model rejected: formula shape outside the checkable fragment: <state> at top level)"}, "stats": {"schemas":0,"avg_segments":0,"duration":{"secs": 0, "nanos": 0},"capped":false,"timed_out":false,"strategy":"auto","cache_hits":0,"cache_misses":0,"replayed":false,"cores_learned":0,"schemas_pruned_by_core":0,"threads":1,"solver":{"checks":0,"branch_nodes":0,"case_splits":0,"pivots":0,"intern_hits":0,"intern_misses":0,"cores_extracted":0,"core_members":0,"core_micros":0,"propagations":0,"propagation_refutations":0,"learned_conflicts":0,"disjuncts_skipped":0}}}
  ]
}
"#;

    #[test]
    fn older_version_2_records_resume_equivalent_to_a_fresh_run() {
        use crate::supervisor::{LadderConfig, SupervisedJob, Supervisor, SupervisorConfig};
        use holistic_checker::CheckerConfig;
        use holistic_ltl::{Ltl, Prop};
        use holistic_models::BvBroadcastModel;

        let bv = BvBroadcastModel::new();
        let justice = bv.justice();
        let specs = bv.table2_specs();
        let (_, just0) = specs.iter().find(|(n, _)| *n == "BV-Just0").unwrap();
        let rejected = Ltl::state(Prop::True);
        let job = |id: &str, property: &str, spec| SupervisedJob {
            id: id.to_owned(),
            property: property.to_owned(),
            ta: &bv.ta,
            spec,
            justice: &justice,
        };
        let jobs = [
            job("bv/BV-Just0", "BV-Just0", just0),
            job("bv/top-level-state", "top-level-state", &rejected),
        ];
        let fresh = Supervisor::new(SupervisorConfig {
            checker: CheckerConfig {
                threads: Some(1),
                ..CheckerConfig::default()
            },
            ladder: LadderConfig {
                enabled: false,
                ..LadderConfig::default()
            },
            ..SupervisorConfig::default()
        })
        .run(&jobs, None)
        .unwrap();

        for (old, outcome) in [V2_BV_JUST0, V2_REJECTED].iter().zip(&fresh.cells) {
            let loaded = cell_from_json(&Json::parse(old).unwrap()).unwrap();
            assert_eq!(loaded.id, outcome.record.id);
            assert_eq!(loaded.failure, outcome.record.failure);
            assert!(
                reports_equivalent(&loaded.report, &outcome.record.report),
                "{}: stored {:?}\nfresh {:?}",
                loaded.id,
                loaded.report,
                outcome.record.report
            );
        }
    }

    #[test]
    fn ids_sanitize_into_distinct_files() {
        assert_eq!(cell_file_name("bv/BV-Just0"), "bv_BV-Just0.json");
        assert_eq!(cell_file_name("a b"), "a_b.json");
    }
}
