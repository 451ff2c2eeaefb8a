//! Volcano-style execution of physical plans over columnar batches.
//!
//! Every operator implements the batch-`next` `Operator` protocol
//! (`open`/`next`/`close`) over [`ColumnBatch`]es; pipeline-friendly
//! operators (scan with pushdown, filter, project, distinct, limit)
//! stream batches, while pipeline breakers (hash-join build,
//! aggregation, sort) drain their input inside `open`. Each operator is
//! wrapped in a `Metered` shim that records rows in/out, batch counts
//! and inclusive wall time into the plan-indexed [`ExecStats`], so
//! `aqks explain --analyze` and the bench harness can attribute cost
//! operator by operator.
//!
//! The heavy operators each have one morsel-driven code path, whatever
//! the thread count. The scan filters 1024-row morsels and the
//! hash join probes its input batch by batch, both in waves: the first
//! wave holds [`ExecCtx::threads`] morsels and each later wave twice as
//! many, so a `LIMIT` stops them after a short prefix. The hash-join
//! build routes its keys into partitions morsel by morsel and builds one
//! table per partition; the aggregate folds contiguous input chunks into
//! partial states merged in chunk order. How many workers run each step
//! comes from the thread count and the input size alone (one below the
//! parallel threshold, with one partition and one chunk); `par` decides
//! whether that means a worker pool. Results are *identical* at every
//! thread count: morsel and chunk results are re-assembled in input
//! order, per-key join match lists stay in build order, and group output
//! keeps first-appearance order.
//!
//! SQL semantics are inherited unchanged from the original interpreter:
//! aggregates skip NULLs, `SUM`/`MIN`/`MAX`/`AVG` over an empty group
//! yield NULL while `COUNT` yields 0, `AVG` is always a float, `SUM`
//! over text is NULL, a global aggregate returns exactly one row, NULL
//! join keys never match, and `contains` ignores case. When the
//! statement has no ORDER BY, output rows are stably sorted by value so
//! results are reproducible across runs and across plans.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aqks_relational::{Database, Row, Value};

use crate::ast::AggFunc;
use crate::batch::{ColumnBatch, ColumnData};
use crate::exec::ExecError;
use crate::par::{self, PoolUse, MORSEL};
use crate::plan::{PhysAggItem, PhysPred, PlanNode, PlanOp};
use crate::result::ResultTable;

/// Rows between cooperative deadline re-checks inside an aggregate
/// chunk (workers have no ambient thread-local governor, so they poll a
/// captured handle; `par` checks it before every task).
const CHECK_EVERY: usize = 512;

/// Live metrics of one operator (indexed by [`PlanNode::id`]).
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// Rows received from all inputs.
    pub rows_in: u64,
    /// Rows emitted.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches: u64,
    /// Inclusive wall time (this operator plus its inputs).
    pub wall: Duration,
    /// The widest worker pool this operator launched (1 = every step
    /// ran on the plan's thread).
    pub threads: u32,
    /// Inclusive wall time spent inside worker pools.
    pub parallel_wall: Duration,
    /// Estimated peak resident bytes attributable to this operator: the
    /// larger of its retained columnar state (hash-join build side,
    /// sort/aggregate input buffers) and its largest emitted batch.
    /// Exact per [`ColumnBatch::byte_size`] column accounting.
    pub peak_bytes: u64,
    /// Operator-specific annotation (e.g. hash-join build/probe sizes).
    pub note: Option<String>,
}

impl OpMetrics {
    /// Fraction of this operator's inclusive wall time spent in
    /// parallel sections, in `0.0..=1.0`.
    pub fn parallel_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            (self.parallel_wall.as_secs_f64() / self.wall.as_secs_f64()).clamp(0.0, 1.0)
        }
    }
}

/// Per-operator metrics of one plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Metrics, indexed by [`PlanNode::id`].
    pub ops: Vec<OpMetrics>,
    /// End-to-end wall time of the plan run.
    pub wall: Duration,
}

impl ExecStats {
    /// Total rows emitted across all operators (a volume proxy: each row
    /// counted once per operator boundary it crosses).
    pub fn rows_flowed(&self) -> u64 {
        self.ops.iter().map(|m| m.rows_out).sum()
    }

    /// The widest worker pool any operator launched (1 = the whole plan
    /// ran on the calling thread: a single thread, or inputs too small
    /// to split).
    pub fn max_threads(&self) -> u32 {
        self.ops.iter().map(|m| m.threads.max(1)).max().unwrap_or(1)
    }

    /// How many operators launched a worker pool.
    pub fn parallel_ops(&self) -> usize {
        self.ops.iter().filter(|m| m.threads > 1).count()
    }
}

impl std::fmt::Display for ExecStats {
    /// One-line summary — the single place execution stats are
    /// formatted for humans (the CLIs print this instead of
    /// hand-assembling the same fields).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} operator(s), {} row(s) flowed, wall {}",
            self.ops.len(),
            self.rows_flowed(),
            crate::plan::fmt_dur(self.wall)
        )?;
        if self.max_threads() > 1 {
            write!(f, ", {} parallel op(s) x{}", self.parallel_ops(), self.max_threads())?;
        }
        Ok(())
    }
}

type StatsCell = Arc<Mutex<Vec<OpMetrics>>>;

/// The Volcano operator protocol: `open` prepares (pipeline breakers do
/// their work here), `next` yields owned column batches until `None`,
/// `close` releases state and finalizes metrics annotations.
trait Operator {
    /// Prepares the operator (and its inputs) for iteration.
    fn open(&mut self) -> Result<(), ExecError>;
    /// The next batch of rows, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError>;
    /// Releases state; called once after iteration.
    fn close(&mut self);
    /// Operator-specific metrics annotation, read at `close`.
    fn note(&self) -> Option<String> {
        None
    }
    /// `(threads, pool wall)` when a worker pool ran, read at `close`
    /// like [`Operator::note`].
    fn parallel_info(&self) -> Option<(u32, Duration)> {
        None
    }
    /// Bytes of columnar state this operator retained (build sides,
    /// buffered inputs, materialized outputs), read just *before*
    /// `close` while the state is still live. Streaming operators
    /// return 0 and are accounted by their largest emitted batch.
    fn mem_bytes(&self) -> u64 {
        0
    }
}

/// Shim recording metrics around an operator.
struct Metered<'a> {
    id: usize,
    stats: StatsCell,
    inner: Box<dyn Operator + 'a>,
}

impl Metered<'_> {
    fn bump<R>(&self, f: impl FnOnce(&mut OpMetrics) -> R) -> R {
        f(&mut par::relock(&self.stats)[self.id])
    }
}

impl Operator for Metered<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        let t = Instant::now();
        let r = self.inner.open();
        self.bump(|m| m.wall += t.elapsed());
        r
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let t = Instant::now();
        let r = self.inner.next();
        let elapsed = t.elapsed();
        self.bump(|m| {
            m.wall += elapsed;
            if let Ok(Some(batch)) = &r {
                m.rows_out += batch.len() as u64;
                m.batches += 1;
                m.peak_bytes = m.peak_bytes.max(batch.byte_size());
            }
        });
        r
    }

    fn close(&mut self) {
        let t = Instant::now();
        // Retained-state bytes must be read while the state is live —
        // `close` is where operators drop it.
        let mem = self.inner.mem_bytes();
        self.inner.close();
        let note = self.inner.note();
        let par_info = self.inner.parallel_info();
        self.bump(|m| {
            m.wall += t.elapsed();
            m.note = note;
            m.peak_bytes = m.peak_bytes.max(mem);
            if let Some((threads, pw)) = par_info {
                m.threads = threads;
                m.parallel_wall = pw;
            }
        });
    }
}

/// Shim enforcing the ambient `aqks-guard` budget around an operator,
/// mirroring [`Metered`]: a deadline checkpoint before every `next` call
/// and a row charge for every batch emitted. Only inserted by [`build`]
/// when a governor is installed, so ungoverned plans pay nothing. Row
/// charging always happens here on the plan's thread, never inside
/// worker pools, so budget accounting is byte-identical across thread
/// counts.
struct Guarded<'a> {
    /// Charge site, e.g. `"ops.HashJoin"` — names the operator whose
    /// output crossed the budget.
    site: &'static str,
    inner: Box<dyn Operator + 'a>,
}

impl Operator for Guarded<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        aqks_guard::checkpoint(self.site)?;
        self.inner.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        aqks_guard::checkpoint(self.site)?;
        let r = self.inner.next()?;
        if let Some(batch) = &r {
            aqks_guard::charge_rows(self.site, batch.len() as u64)?;
        }
        Ok(r)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn note(&self) -> Option<String> {
        self.inner.note()
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.inner.parallel_info()
    }

    fn mem_bytes(&self) -> u64 {
        self.inner.mem_bytes()
    }
}

/// Replays batches materialized once by a shared subplan (see
/// `aqks-equiv`): the consumer site's whole subtree is replaced by this
/// operator, so the shared work executes exactly once per set. Because
/// batches share their columns behind `Arc`s, re-emitting them is a
/// handful of reference-count bumps per consumer — O(consumers), not
/// O(consumers x rows). The shim stack above (metering, budget
/// checkpoints at the `ops.Cached` site) is preserved, so replayed rows
/// are metered and charged like any other operator output.
struct CachedRows {
    batches: Arc<Vec<ColumnBatch>>,
    rows: u64,
    pos: usize,
}

impl Operator for CachedRows {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.pos >= self.batches.len() {
            return Ok(None);
        }
        let batch = self.batches[self.pos].clone();
        self.pos += 1;
        Ok(Some(batch))
    }

    fn close(&mut self) {}

    fn note(&self) -> Option<String> {
        Some(format!("cached rows={}", self.rows))
    }

    fn mem_bytes(&self) -> u64 {
        self.batches.iter().map(ColumnBatch::byte_size).sum()
    }
}

/// Budget charge site of an operator (static so [`aqks_guard::Tripped`]
/// can carry it without allocating).
fn guard_site(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "ops.Scan",
        PlanOp::DerivedTable { .. } => "ops.DerivedTable",
        PlanOp::Filter { .. } => "ops.Filter",
        PlanOp::HashJoin { .. } => "ops.HashJoin",
        PlanOp::CrossJoin => "ops.CrossJoin",
        PlanOp::HashAggregate { .. } => "ops.HashAggregate",
        PlanOp::Project { .. } => "ops.Project",
        PlanOp::Distinct => "ops.Distinct",
        PlanOp::Sort { .. } => "ops.Sort",
        PlanOp::Limit { .. } => "ops.Limit",
    }
}

// ---------------------------------------------------------------------------
// Columnar predicate evaluation
// ---------------------------------------------------------------------------

/// Indices of the rows in `batch` satisfying every predicate, with
/// typed fast paths where the column representation makes them exact.
/// Fast paths are restricted to same-typed comparisons: `Value`
/// equality compares `Int`/`Float` numerically, so mixed-type columns
/// go through the generic per-value path.
fn filter_indices(batch: &ColumnBatch, preds: &[PhysPred]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..batch.len() as u32).collect();
    for p in preds {
        filter_pred(batch, p, &mut idx);
    }
    idx
}

fn filter_pred(batch: &ColumnBatch, pred: &PhysPred, idx: &mut Vec<u32>) {
    match pred {
        PhysPred::EqCols(l, r) => {
            let (lc, rc) = (batch.column(*l), batch.column(*r));
            match (lc.data(), rc.data()) {
                (ColumnData::Int(a), ColumnData::Int(b)) => idx.retain(|&i| {
                    let i = i as usize;
                    lc.is_valid(i) && rc.is_valid(i) && a[i] == b[i]
                }),
                (ColumnData::Str(a), ColumnData::Str(b)) => idx.retain(|&i| {
                    let i = i as usize;
                    lc.is_valid(i) && rc.is_valid(i) && a[i] == b[i]
                }),
                _ => idx.retain(|&i| {
                    let v = lc.value(i as usize);
                    !v.is_null() && v == rc.value(i as usize)
                }),
            }
        }
        PhysPred::ContainsCi(c, needle) => {
            let col = batch.column(*c);
            match col.data() {
                ColumnData::Str(s) => idx.retain(|&i| {
                    col.is_valid(i as usize)
                        && s[i as usize].to_lowercase().contains(needle.as_str())
                }),
                _ => idx.retain(|&i| col.value(i as usize).contains_ci(needle)),
            }
        }
        PhysPred::EqLit(c, v) => {
            let col = batch.column(*c);
            match (col.data(), v) {
                (ColumnData::Int(a), Value::Int(want)) => {
                    idx.retain(|&i| col.is_valid(i as usize) && a[i as usize] == *want)
                }
                (ColumnData::Str(a), Value::Str(want)) => {
                    idx.retain(|&i| col.is_valid(i as usize) && a[i as usize] == *want)
                }
                _ => idx.retain(|&i| col.value(i as usize) == *v),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// The wave schedule of a lazily pulled input: how many morsels the next
/// wave takes (`threads` first, doubling after each wave), and the
/// output batches of the current wave still to emit.
struct Waves {
    next: usize,
    ready: std::vec::IntoIter<ColumnBatch>,
    /// Bytes of the largest wave output held at once.
    peak_bytes: u64,
}

impl Waves {
    fn new(threads: usize) -> Waves {
        Waves { next: threads, ready: Vec::new().into_iter(), peak_bytes: 0 }
    }

    /// Size of the next wave; the one after it is twice as large.
    fn take(&mut self) -> usize {
        let n = self.next;
        self.next = n.saturating_mul(2);
        n
    }

    /// Queues a wave's task outputs (in task order) for emission.
    fn fill(&mut self, out: Vec<Option<ColumnBatch>>) {
        let batches: Vec<ColumnBatch> = out.into_iter().flatten().collect();
        self.peak_bytes = self.peak_bytes.max(batches.iter().map(ColumnBatch::byte_size).sum());
        self.ready = batches.into_iter();
    }
}

/// Morsel-driven scan with scan-time predicate evaluation. The table is
/// filtered in waves of [`MORSEL`]-row morsels: the first wave holds
/// `threads` morsels and each later wave twice the previous one, so a
/// `LIMIT` stops the scan after a short prefix while a long scan takes
/// only a logarithmic number of task runs. Each morsel's surviving rows
/// form one batch, emitted in morsel order.
struct Scan<'a> {
    rows: &'a [Row],
    preds: &'a [PhysPred],
    threads: usize,
    width: usize,
    /// First row of the next wave.
    pos: usize,
    waves: Waves,
    pool: PoolUse,
}

impl Operator for Scan<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        self.waves = Waves::new(self.threads);
        self.width = self.rows.first().map_or(0, Vec::len);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        loop {
            if let Some(batch) = self.waves.ready.next() {
                return Ok(Some(batch));
            }
            let (rows, preds, width, start) = (self.rows, self.preds, self.width, self.pos);
            if start >= rows.len() {
                return Ok(None);
            }
            let n = self.waves.take().min((rows.len() - start).div_ceil(MORSEL));
            let workers = par::workers(self.threads, rows.len());
            let out = self.pool.run(workers, n, "ops.Scan", |m| {
                let lo = start + m * MORSEL;
                let keep: Vec<&Row> = rows[lo..(lo + MORSEL).min(rows.len())]
                    .iter()
                    .filter(|row| preds.iter().all(|p| p.eval(row)))
                    .collect();
                Ok((!keep.is_empty()).then(|| ColumnBatch::from_row_refs(width, &keep)))
            })?;
            self.pos = (start + n * MORSEL).min(rows.len());
            self.waves.fill(out);
        }
    }

    fn close(&mut self) {
        self.waves.ready = Vec::new().into_iter();
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.pool.info()
    }

    fn mem_bytes(&self) -> u64 {
        self.waves.peak_bytes
    }
}

/// Alias boundary over a planned subquery: forwards batches unchanged
/// (the rename is plan metadata only).
struct Passthrough<'a> {
    child: Metered<'a>,
}

impl Operator for Passthrough<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        self.child.next()
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Residual predicate application over columnar batches.
struct Filter<'a> {
    child: Metered<'a>,
    preds: &'a [PhysPred],
}

impl Operator for Filter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        while let Some(batch) = self.child.next()? {
            let keep = filter_indices(&batch, self.preds);
            if keep.len() == batch.len() && !keep.is_empty() {
                return Ok(Some(batch));
            }
            if !keep.is_empty() {
                return Ok(Some(batch.gather(&keep)));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Radix partition of a join key under `mask` (partition count - 1).
/// A single partition needs no hash. Partition assignment never affects
/// output order, but `DefaultHasher` with fixed keys is deterministic
/// anyway.
fn part_of(key: &[Value], mask: u64) -> usize {
    if mask == 0 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() & mask) as usize
}

/// Join key at row `i` of `batch`, or `None` when any component is NULL
/// (NULL never joins).
fn key_at(batch: &ColumnBatch, keys: &[usize], i: usize) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(keys.len());
    for &k in keys {
        let v = batch.value(k, i);
        if v.is_null() {
            return None;
        }
        key.push(v);
    }
    Some(key)
}

/// `(key, build-row-index)` pairs routed to one radix partition.
type KeyedIdx = Vec<(Vec<Value>, u32)>;

/// Partition-indexed hash table over build-side row indices. Per-key
/// index lists are in ascending build order, which pins the probe-output
/// match order at every partition count.
#[derive(Default)]
struct JoinTable {
    partitions: Vec<HashMap<Vec<Value>, Vec<u32>>>,
    mask: u64,
}

impl JoinTable {
    fn get(&self, key: &[Value]) -> Option<&Vec<u32>> {
        self.partitions.get(part_of(key, self.mask))?.get(key)
    }
}

/// Builds the join table over `data`'s key columns in two steps: morsels
/// route `(key, index)` pairs into per-morsel partition buckets, then one
/// task per partition folds the buckets *in morsel order* into its hash
/// map, so every per-key index list comes out in ascending row order.
/// One worker builds a single partition.
fn build_join_table(
    data: &ColumnBatch,
    keys: &[usize],
    threads: usize,
    pool: &mut PoolUse,
) -> Result<JoinTable, ExecError> {
    /// Radix fan-out with several workers: enough partitions to keep
    /// 8-16 workers busy without fragmenting small builds.
    const PARTITIONS: usize = 32;
    let n = data.len();
    let workers = par::workers(threads, n);
    let parts = if workers > 1 { PARTITIONS } else { 1 };
    let mask = (parts - 1) as u64;
    let morsels = pool.run(workers, n.div_ceil(MORSEL), "ops.HashJoin", |m| {
        let mut buckets: Vec<KeyedIdx> = (0..parts).map(|_| Vec::new()).collect();
        for i in m * MORSEL..((m + 1) * MORSEL).min(n) {
            if let Some(key) = key_at(data, keys, i) {
                buckets[part_of(&key, mask)].push((key, i as u32));
            }
        }
        Ok(buckets)
    })?;
    // Each partition's buckets in morsel order (cheap Vec moves).
    let mut slots: Vec<Vec<KeyedIdx>> =
        (0..parts).map(|_| Vec::with_capacity(morsels.len())).collect();
    for morsel in morsels {
        for (slot, bucket) in slots.iter_mut().zip(morsel) {
            slot.push(bucket);
        }
    }
    let slots: Vec<Mutex<Vec<KeyedIdx>>> = slots.into_iter().map(Mutex::new).collect();
    let partitions = pool.run(workers, parts, "ops.HashJoin", |p| {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for bucket in std::mem::take(&mut *par::relock(&slots[p])) {
            for (key, i) in bucket {
                map.entry(key).or_default().push(i);
            }
        }
        Ok(map)
    })?;
    Ok(JoinTable { partitions, mask })
}

/// Multi-key hash equi-join. The build side (chosen by the planner from
/// cardinality estimates) is drained and indexed at `open`; the probe
/// side is pulled in waves of batches (`threads` batches first, doubling
/// after each wave) and every batch of a wave is probed as one task.
/// Output columns are always left then right, whichever side built, and
/// outputs follow probe order, with each probe row's matches in build
/// order. NULL keys never match on either side.
struct HashJoin<'a> {
    left: Metered<'a>,
    right: Metered<'a>,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    build_left: bool,
    threads: usize,
    build_data: Option<ColumnBatch>,
    table: JoinTable,
    /// Waves of probe batches.
    waves: Waves,
    probe_done: bool,
    build_rows: u64,
    probe_rows: u64,
    pool: PoolUse,
}

impl Operator for HashJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        aqks_guard::failpoint!("join.build");
        self.left.open()?;
        self.right.open()?;
        self.waves = Waves::new(self.threads);
        self.probe_done = false;
        let (build, keys) = if self.build_left {
            (&mut self.left, self.left_keys)
        } else {
            (&mut self.right, self.right_keys)
        };
        let mut batches = Vec::new();
        while let Some(batch) = build.next()? {
            // Retained hash-table state is charged against the budget on
            // top of the child's streaming charge: materialized rows are
            // the memory hazard a row cap exists to bound. Charged here
            // on the plan's thread, identically at every thread count.
            aqks_guard::charge_rows("ops.HashJoin.build", batch.len() as u64)?;
            self.build_rows += batch.len() as u64;
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        if !batches.is_empty() {
            let data = ColumnBatch::concat(batches[0].width(), &batches);
            self.table = build_join_table(&data, keys, self.threads, &mut self.pool)?;
            self.build_data = Some(data);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        loop {
            if let Some(batch) = self.waves.ready.next() {
                return Ok(Some(batch));
            }
            if self.probe_done {
                return Ok(None);
            }
            let (probe, keys) = if self.build_left {
                (&mut self.right, self.right_keys)
            } else {
                (&mut self.left, self.left_keys)
            };
            let (mut wave, mut rows) = (Vec::new(), 0);
            let size = self.waves.take();
            while wave.len() < size {
                let Some(batch) = probe.next()? else {
                    self.probe_done = true;
                    break;
                };
                self.probe_rows += batch.len() as u64;
                rows += batch.len();
                if !batch.is_empty() {
                    wave.push(batch);
                }
            }
            // An empty build side matches nothing; the probe side is
            // still drained, so its row counts never depend on the
            // build side's.
            let Some(data) = &self.build_data else { continue };
            let (table, build_left) = (&self.table, self.build_left);
            let workers = par::workers(self.threads, rows);
            let out = self.pool.run(workers, wave.len(), "ops.HashJoin", |bi| {
                let batch = &wave[bi];
                let mut bidx: Vec<u32> = Vec::new();
                let mut pidx: Vec<u32> = Vec::new();
                for i in 0..batch.len() {
                    let Some(key) = key_at(batch, keys, i) else { continue };
                    if let Some(matches) = table.get(&key) {
                        for &m in matches {
                            bidx.push(m);
                            pidx.push(i as u32);
                        }
                    }
                }
                if bidx.is_empty() {
                    return Ok(None);
                }
                let (bside, pside) = (data.gather(&bidx), batch.gather(&pidx));
                Ok(Some(if build_left {
                    ColumnBatch::hcat(&bside, &pside)
                } else {
                    ColumnBatch::hcat(&pside, &bside)
                }))
            })?;
            self.waves.fill(out);
        }
    }

    fn close(&mut self) {
        self.table = JoinTable::default();
        self.build_data = None;
        self.waves.ready = Vec::new().into_iter();
        self.left.close();
        self.right.close();
    }

    fn note(&self) -> Option<String> {
        Some(format!("build rows={} probe rows={}", self.build_rows, self.probe_rows))
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.pool.info()
    }

    fn mem_bytes(&self) -> u64 {
        // Build side plus the largest output wave; the hash table's key
        // index is not columnar and is not counted.
        self.build_data.as_ref().map_or(0, ColumnBatch::byte_size) + self.waves.peak_bytes
    }
}

/// Cross product, used only when no equi-join connects the inputs. The
/// right (planner-chosen smallest) side is buffered; the left streams.
struct CrossJoin<'a> {
    left: Metered<'a>,
    right: Metered<'a>,
    buffer: Option<ColumnBatch>,
}

impl Operator for CrossJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.left.open()?;
        self.right.open()?;
        let mut batches = Vec::new();
        while let Some(batch) = self.right.next()? {
            aqks_guard::charge_rows("ops.CrossJoin.build", batch.len() as u64)?;
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        if !batches.is_empty() {
            self.buffer = Some(ColumnBatch::concat(batches[0].width(), &batches));
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let Some(buf) = &self.buffer else { return Ok(None) };
        while let Some(batch) = self.left.next()? {
            if batch.is_empty() {
                continue;
            }
            let (nl, nr) = (batch.len(), buf.len());
            let mut lidx = Vec::with_capacity(nl * nr);
            let mut ridx = Vec::with_capacity(nl * nr);
            for l in 0..nl as u32 {
                for r in 0..nr as u32 {
                    lidx.push(l);
                    ridx.push(r);
                }
            }
            return Ok(Some(ColumnBatch::hcat(&batch.gather(&lidx), &buf.gather(&ridx))));
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.buffer = None;
        self.left.close();
        self.right.close();
    }

    fn mem_bytes(&self) -> u64 {
        self.buffer.as_ref().map_or(0, ColumnBatch::byte_size)
    }
}

// ---------------------------------------------------------------------------
// Aggregation states
// ---------------------------------------------------------------------------

/// Mergeable per-group accumulator of one output item. `Vals` collects
/// the non-null input values *in row order* and defers to [`aggregate`]
/// at finalize — `SUM`/`AVG` and all DISTINCT aggregates use it, so
/// float summation order (and hence the bits of the result) is
/// identical at every thread count.
#[derive(Debug, Clone)]
enum AggState {
    /// Non-null count.
    Count(u64),
    /// Current minimum (first minimal element wins, like `Iterator::min`).
    Min(Option<Value>),
    /// Current maximum (last maximal element wins, like `Iterator::max`).
    Max(Option<Value>),
    /// Ordered non-null values, finalized via [`aggregate`].
    Vals(Vec<Value>),
    /// First row's value (group-by column passthrough), NULL included.
    First(Option<Value>),
}

fn new_states(items: &[PhysAggItem]) -> Vec<AggState> {
    items
        .iter()
        .map(|item| match item {
            PhysAggItem::Col(_) => AggState::First(None),
            PhysAggItem::Agg { func, distinct, .. } => {
                if *distinct {
                    AggState::Vals(Vec::new())
                } else {
                    match func {
                        AggFunc::Count => AggState::Count(0),
                        AggFunc::Min => AggState::Min(None),
                        AggFunc::Max => AggState::Max(None),
                        AggFunc::Sum | AggFunc::Avg => AggState::Vals(Vec::new()),
                    }
                }
            }
        })
        .collect()
}

fn acc_state(state: &mut AggState, v: Value) {
    match state {
        AggState::Count(n) => {
            if !v.is_null() {
                *n += 1;
            }
        }
        AggState::Min(cur) => {
            if !v.is_null() {
                match cur {
                    Some(c) if v >= *c => {}
                    _ => *cur = Some(v),
                }
            }
        }
        AggState::Max(cur) => {
            if !v.is_null() {
                match cur {
                    Some(c) if v < *c => {}
                    _ => *cur = Some(v),
                }
            }
        }
        AggState::Vals(vs) => {
            if !v.is_null() {
                vs.push(v);
            }
        }
        AggState::First(f) => {
            if f.is_none() {
                *f = Some(v);
            }
        }
    }
}

/// Merges a later chunk's state `b` into `a` (chunks arrive in input
/// order, so "later" means later rows).
fn merge_state(a: &mut AggState, b: AggState) {
    match (a, b) {
        (AggState::Count(x), AggState::Count(y)) => *x += y,
        (AggState::Min(x), AggState::Min(Some(vy))) => match x {
            // The earlier chunk's minimum wins ties, matching a single
            // chunk's first-among-equals behaviour.
            Some(vx) if vy >= *vx => {}
            _ => *x = Some(vy),
        },
        (AggState::Max(x), AggState::Max(Some(vy))) => match x {
            Some(vx) if vy < *vx => {}
            _ => *x = Some(vy),
        },
        (AggState::Vals(x), AggState::Vals(y)) => x.extend(y),
        (AggState::First(x @ None), AggState::First(y)) => *x = y,
        // States are built per item from the same plan: kinds always line up.
        _ => {}
    }
}

fn finalize_state(state: AggState, item: &PhysAggItem) -> Value {
    match state {
        AggState::Count(n) => Value::Int(n as i64),
        AggState::Min(v) | AggState::Max(v) | AggState::First(v) => v.unwrap_or(Value::Null),
        AggState::Vals(vs) => match item {
            PhysAggItem::Agg { func, distinct, .. } => aggregate(*func, *distinct, vs.iter()),
            PhysAggItem::Col(_) => Value::Null,
        },
    }
}

/// One chunk's grouped partial states, keys in first-appearance order.
struct Partial {
    order: Vec<Vec<Value>>,
    groups: HashMap<Vec<Value>, Vec<AggState>>,
}

impl Partial {
    fn new() -> Partial {
        Partial { order: Vec::new(), groups: HashMap::new() }
    }

    /// Merges the partial of a later chunk into this one.
    fn absorb(&mut self, mut later: Partial) {
        for key in later.order {
            let Some(states) = later.groups.remove(&key) else { continue };
            match self.groups.entry(key) {
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(states) {
                        merge_state(a, b);
                    }
                }
                Entry::Vacant(e) => {
                    self.order.push(e.key().clone());
                    e.insert(states);
                }
            }
        }
    }
}

/// Folds one batch into a partial, polling the captured governor's
/// deadline mid-chunk when present.
fn accumulate_batch(
    p: &mut Partial,
    batch: &ColumnBatch,
    group: &[usize],
    items: &[PhysAggItem],
    gov: Option<&aqks_guard::Governor>,
) -> Result<(), ExecError> {
    for i in 0..batch.len() {
        if i % CHECK_EVERY == CHECK_EVERY - 1 {
            if let Some(g) = gov {
                g.check_deadline("ops.HashAggregate")?;
            }
        }
        let key: Vec<Value> = group.iter().map(|&c| batch.value(c, i)).collect();
        let states = match p.groups.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                p.order.push(e.key().clone());
                e.insert(new_states(items))
            }
        };
        for (state, item) in states.iter_mut().zip(items) {
            let col = match item {
                PhysAggItem::Col(c) => *c,
                PhysAggItem::Agg { arg, .. } => *arg,
            };
            acc_state(state, batch.value(col, i));
        }
    }
    Ok(())
}

/// Splits `batches` into up to `workers` contiguous chunks balanced by
/// row count. Contiguity is what makes the merge trivial to keep
/// deterministic: chunk order *is* input row order.
fn chunk_ranges(batches: &[ColumnBatch], workers: usize) -> Vec<(usize, usize)> {
    let total: usize = batches.iter().map(ColumnBatch::len).sum();
    let target = total.div_ceil(workers).max(1);
    let mut out = Vec::new();
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, b) in batches.iter().enumerate() {
        acc += b.len();
        if acc >= target {
            out.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < batches.len() {
        out.push((start, batches.len()));
    }
    out
}

/// Grouped/global aggregation (pipeline breaker), in two phases:
/// contiguous input chunks (one per worker) fold into per-chunk
/// [`Partial`]s, then the partials merge *in chunk order*, the first one
/// by a move. Group output order (first appearance) and `Vals` row order
/// are therefore the same at any thread count.
struct HashAggregate<'a> {
    child: Metered<'a>,
    group: &'a [usize],
    items: &'a [PhysAggItem],
    threads: usize,
    output: Vec<Row>,
    emitted: usize,
    in_rows: u64,
    in_bytes: u64,
    groups_out: u64,
    pool: PoolUse,
}

impl Operator for HashAggregate<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()?;
        let mut batches = Vec::new();
        while let Some(batch) = self.child.next()? {
            // Grouped rows are retained until finalize; charge them like
            // hash-join build state (on the plan's thread, always).
            aqks_guard::charge_rows("ops.HashAggregate.build", batch.len() as u64)?;
            self.in_rows += batch.len() as u64;
            self.in_bytes += batch.byte_size();
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        aqks_guard::failpoint!("agg.finalize");
        let (group, items) = (self.group, self.items);
        let workers = par::workers(self.threads, self.in_rows as usize);
        let chunks = chunk_ranges(&batches, workers);
        let gov = aqks_guard::current();
        let partials = self.pool.run(workers, chunks.len(), "ops.HashAggregate", |ci| {
            let (s, e) = chunks[ci];
            let mut p = Partial::new();
            for b in &batches[s..e] {
                accumulate_batch(&mut p, b, group, items, gov.as_ref())?;
            }
            Ok(p)
        })?;
        let mut partials = partials.into_iter();
        let mut merged = partials.next().unwrap_or_else(Partial::new);
        for p in partials {
            merged.absorb(p);
        }
        let Partial { mut order, mut groups } = merged;
        // A global aggregate over an empty input still yields one row.
        if order.is_empty() && group.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), new_states(items));
        }
        self.groups_out = order.len() as u64;
        for key in order {
            let Some(states) = groups.remove(&key) else { continue };
            let row: Row = states
                .into_iter()
                .zip(items)
                .map(|(state, item)| finalize_state(state, item))
                .collect();
            self.output.push(row);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.emitted >= self.output.len() {
            return Ok(None);
        }
        let end = (self.emitted + MORSEL).min(self.output.len());
        let batch = ColumnBatch::from_rows(self.items.len(), &self.output[self.emitted..end]);
        self.emitted = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.output.clear();
        self.child.close();
    }

    fn note(&self) -> Option<String> {
        Some(format!("groups={} from rows={}", self.groups_out, self.in_rows))
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.pool.info()
    }

    fn mem_bytes(&self) -> u64 {
        // Peak is the buffered input (held until finalize), measured
        // as the batches streamed in.
        self.in_bytes
    }
}

/// Column projection — zero-copy: the output batch shares the selected
/// columns' storage.
struct Project<'a> {
    child: Metered<'a>,
    cols: &'a [usize],
}

impl Operator for Project<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        match self.child.next()? {
            Some(batch) => Ok(Some(batch.select(self.cols))),
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Streaming duplicate elimination.
struct Distinct<'a> {
    child: Metered<'a>,
    seen: HashSet<Row>,
    seen_bytes: u64,
}

impl Operator for Distinct<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        while let Some(batch) = self.child.next()? {
            let mut fresh: Vec<u32> = Vec::new();
            for i in 0..batch.len() {
                if self.seen.insert(batch.row(i)) {
                    fresh.push(i as u32);
                }
            }
            if !fresh.is_empty() {
                let out = batch.gather(&fresh);
                // The seen-set retains exactly the distinct rows — the
                // rows this operator emits.
                self.seen_bytes += out.byte_size();
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.seen.clear();
        self.child.close();
    }

    fn mem_bytes(&self) -> u64 {
        self.seen_bytes
    }
}

/// ORDER BY over the output columns (pipeline breaker).
struct Sort<'a> {
    child: Metered<'a>,
    keys: &'a [(usize, bool)],
    width: usize,
    buffer: Vec<Row>,
    in_bytes: u64,
    emitted: usize,
}

impl Operator for Sort<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()?;
        while let Some(batch) = self.child.next()? {
            self.width = self.width.max(batch.width());
            self.in_bytes += batch.byte_size();
            self.buffer.extend(batch.to_rows());
        }
        let keys = self.keys;
        self.buffer.sort_by(|a, b| {
            for &(i, desc) in keys {
                let ord = a[i].cmp(&b[i]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.emitted >= self.buffer.len() {
            return Ok(None);
        }
        let end = (self.emitted + MORSEL).min(self.buffer.len());
        let batch = ColumnBatch::from_rows(self.width, &self.buffer[self.emitted..end]);
        self.emitted = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.buffer.clear();
        self.child.close();
    }

    fn mem_bytes(&self) -> u64 {
        // The whole input is buffered until emitted, measured as the
        // batches streamed in.
        self.in_bytes
    }
}

/// LIMIT: stops pulling from its input once satisfied.
struct Limit<'a> {
    child: Metered<'a>,
    remaining: usize,
}

impl Operator for Limit<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next()? {
            Some(batch) => {
                let batch =
                    if batch.len() > self.remaining { batch.head(self.remaining) } else { batch };
                self.remaining -= batch.len();
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

// ---------------------------------------------------------------------------
// Building and running
// ---------------------------------------------------------------------------

/// Materialized batches substituted for plan subtrees by node id — the
/// executor half of `aqks-equiv`'s shared-subplan DAG. The batch list
/// is `Arc`-shared so every consumer replays the same storage.
pub type SharedRows = HashMap<usize, Arc<Vec<ColumnBatch>>>;

/// Everything a plan run takes besides the plan and the database.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Threads the heavy operators may use (at least 1). An operator
    /// splits an input across them only when it reaches the parallel
    /// threshold (4096 rows); the answer is the same at every count,
    /// only the wall time changes.
    pub threads: usize,
    /// Plan nodes whose ids appear here are replaced by a replay of the
    /// supplied batches; the subtree below them never builds or runs.
    pub shared: SharedRows,
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::with_threads(1)
    }
}

impl ExecCtx {
    /// A context running `n` threads (clamped to at least 1) with no
    /// shared subtrees.
    pub fn with_threads(n: usize) -> ExecCtx {
        ExecCtx { threads: n.max(1), shared: SharedRows::new() }
    }
}

// Everything the executor shares across worker threads, and everything
// `aqks-server` shares across request handlers, must be `Send + Sync`;
// enforced at compile time so an `Rc`/`RefCell` can't creep back in.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ExecCtx>();
    assert_send_sync::<StatsCell>();
    assert_send_sync::<JoinTable>();
    assert_send_sync::<Partial>();
    assert_send_sync::<ExecStats>();
    assert_send_sync::<OpMetrics>();
};

fn build<'a>(
    node: &'a PlanNode,
    db: &'a Database,
    stats: &StatsCell,
    governed: bool,
    ctx: &ExecCtx,
) -> Result<Metered<'a>, ExecError> {
    if let Some(batches) = ctx.shared.get(&node.id) {
        let rows = batches.iter().map(|b| b.len() as u64).sum();
        let inner: Box<dyn Operator + 'a> =
            Box::new(CachedRows { batches: Arc::clone(batches), rows, pos: 0 });
        let inner: Box<dyn Operator + 'a> =
            if governed { Box::new(Guarded { site: "ops.Cached", inner }) } else { inner };
        return Ok(Metered { id: node.id, stats: stats.clone(), inner });
    }
    let child = |i: usize| build(&node.children[i], db, stats, governed, ctx);
    let threads = ctx.threads.max(1);
    let inner: Box<dyn Operator + 'a> = match &node.op {
        PlanOp::Scan { relation, pushed, .. } => {
            let table =
                db.table(relation).ok_or_else(|| ExecError::UnknownRelation(relation.clone()))?;
            Box::new(Scan {
                rows: table.rows(),
                preds: pushed,
                threads,
                width: 0,
                pos: 0,
                waves: Waves::new(threads),
                pool: PoolUse::default(),
            })
        }
        PlanOp::DerivedTable { .. } => Box::new(Passthrough { child: child(0)? }),
        PlanOp::Filter { preds } => Box::new(Filter { child: child(0)?, preds }),
        PlanOp::HashJoin { left_keys, right_keys, build_left } => Box::new(HashJoin {
            left: child(0)?,
            right: child(1)?,
            left_keys,
            right_keys,
            build_left: *build_left,
            threads,
            build_data: None,
            table: JoinTable::default(),
            waves: Waves::new(threads),
            probe_done: false,
            build_rows: 0,
            probe_rows: 0,
            pool: PoolUse::default(),
        }),
        PlanOp::CrossJoin => {
            Box::new(CrossJoin { left: child(0)?, right: child(1)?, buffer: None })
        }
        PlanOp::HashAggregate { group, items, .. } => Box::new(HashAggregate {
            child: child(0)?,
            group,
            items,
            threads,
            output: Vec::new(),
            emitted: 0,
            in_rows: 0,
            in_bytes: 0,
            groups_out: 0,
            pool: PoolUse::default(),
        }),
        PlanOp::Project { cols, .. } => Box::new(Project { child: child(0)?, cols }),
        PlanOp::Distinct => {
            Box::new(Distinct { child: child(0)?, seen: HashSet::new(), seen_bytes: 0 })
        }
        PlanOp::Sort { keys } => Box::new(Sort {
            child: child(0)?,
            keys,
            width: 0,
            buffer: Vec::new(),
            in_bytes: 0,
            emitted: 0,
        }),
        PlanOp::Limit { n } => Box::new(Limit { child: child(0)?, remaining: *n }),
    };
    // Budget enforcement sits inside the metering shim so governed wall
    // time is attributed to the operator it bounds.
    let inner: Box<dyn Operator + 'a> =
        if governed { Box::new(Guarded { site: guard_site(&node.op), inner }) } else { inner };
    Ok(Metered { id: node.id, stats: stats.clone(), inner })
}

/// Executes a physical plan against `db`, returning the result table and
/// the per-operator metrics. When the plan carries no ORDER BY the rows
/// are stably sorted by value, so results are reproducible across runs,
/// thread counts and plan changes.
pub fn run(
    plan: &PlanNode,
    db: &Database,
    ctx: &ExecCtx,
) -> Result<(ResultTable, ExecStats), ExecError> {
    let (batches, stats) = materialize(plan, db, ctx)?;
    let mut rows: Vec<Row> = Vec::new();
    for b in &batches {
        rows.extend(b.to_rows());
    }
    if !plan.is_ordered() {
        rows.sort();
    }
    let mut table = ResultTable::new(plan.output_names());
    table.rows = rows;
    Ok((table, stats))
}

/// Executes a plan and returns its raw output *batches* in operator
/// output order, without the stabilizing sort or column naming of
/// [`run`] — the materialization primitive for shared subtrees, whose
/// consumers replay the columnar storage without a row detour.
pub fn materialize(
    plan: &PlanNode,
    db: &Database,
    ctx: &ExecCtx,
) -> Result<(Vec<ColumnBatch>, ExecStats), ExecError> {
    let t0 = Instant::now();
    let stats: StatsCell = Arc::new(Mutex::new(vec![OpMetrics::default(); plan.max_id() + 1]));
    // One ambient probe per plan: ungoverned runs skip the Guarded shims
    // entirely, keeping the default path free.
    let governed = aqks_guard::current().is_some();
    let mut root = build(plan, db, &stats, governed, ctx)?;
    root.open()?;
    let mut batches: Vec<ColumnBatch> = Vec::new();
    while let Some(batch) = root.next()? {
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    root.close();
    drop(root);

    let mut ops = Arc::try_unwrap(stats)
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .unwrap_or_else(|arc| par::relock(&arc).clone());
    // rows-in is the sum of each node's children's rows-out (zero below
    // a cached replay: those subtrees never ran).
    plan.visit(&mut |node| {
        let rows_in: u64 = node.children.iter().map(|c| ops[c.id].rows_out).sum();
        ops[node.id].rows_in = rows_in;
    });
    for m in &mut ops {
        if m.threads == 0 {
            m.threads = 1;
        }
    }
    // When an observability recorder is active on this thread (the
    // engine's `exec` span), graft the per-operator metrics into its
    // span tree so operator costs and pipeline phases land in one trace.
    if let Some(rec) = aqks_obs::current() {
        record_op_spans(&rec, plan, &ops, t0, None);
    }
    // Always-on cumulative telemetry: per-operator-kind rows/batches
    // counters and wall/peak-bytes histograms in the global registry.
    if aqks_obs::metrics::enabled() {
        plan.visit(&mut |node| {
            let m = &ops[node.id];
            let name = op_name(&node.op);
            OP_ROWS.add(name, m.rows_out);
            OP_BATCHES.add(name, m.batches);
            OP_WALL_NS.observe(name, m.wall.as_nanos() as u64);
            OP_PEAK_BYTES.observe(name, m.peak_bytes);
        });
    }
    Ok((batches, ExecStats { ops, wall: t0.elapsed() }))
}

/// Cumulative per-operator-kind metrics, labeled by [`op_name`].
static OP_ROWS: aqks_obs::LabeledCounter = aqks_obs::LabeledCounter::new("aqks_ops_rows", "op");
static OP_BATCHES: aqks_obs::LabeledCounter =
    aqks_obs::LabeledCounter::new("aqks_ops_batches", "op");
static OP_WALL_NS: aqks_obs::LabeledHistogram =
    aqks_obs::LabeledHistogram::new("aqks_ops_wall_ns", "op", aqks_obs::Unit::Nanos);
static OP_PEAK_BYTES: aqks_obs::LabeledHistogram =
    aqks_obs::LabeledHistogram::new("aqks_ops_peak_bytes", "op", aqks_obs::Unit::Bytes);

/// Short operator name for trace spans (the EXPLAIN label minus its
/// plan-specific detail, so span names are stable across queries).
fn op_name(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "Scan",
        PlanOp::DerivedTable { .. } => "DerivedTable",
        PlanOp::Filter { .. } => "Filter",
        PlanOp::HashJoin { .. } => "HashJoin",
        PlanOp::CrossJoin => "CrossJoin",
        PlanOp::HashAggregate { .. } => "HashAggregate",
        PlanOp::Project { .. } => "Project",
        PlanOp::Distinct => "Distinct",
        PlanOp::Sort { .. } => "Sort",
        PlanOp::Limit { .. } => "Limit",
    }
}

/// Records one completed span per plan operator, nested by plan
/// structure. Operator wall times are *inclusive* (an operator's clock
/// runs while it pulls from its inputs), so parent/child spans nest like
/// an icicle graph and per-span self time is meaningful. Spans start at
/// the plan run's `t0`: operators execute interleaved, so only the
/// durations — not the offsets — are physical. A `threads` counter is
/// added only when the operator launched a worker pool, so traces of
/// plans that ran on one thread carry no thread counts.
fn record_op_spans(
    rec: &aqks_obs::Recorder,
    node: &PlanNode,
    ops: &[OpMetrics],
    t0: Instant,
    parent: Option<&aqks_obs::SpanHandle>,
) {
    let m = &ops[node.id];
    let mut counters =
        vec![("rows_in", m.rows_in), ("rows_out", m.rows_out), ("batches", m.batches)];
    if m.threads > 1 {
        counters.push(("threads", u64::from(m.threads)));
    }
    let handle =
        rec.record_span(parent, format!("op:{}", op_name(&node.op)), t0, m.wall, &counters);
    for c in &node.children {
        record_op_spans(rec, c, ops, t0, Some(&handle));
    }
}

/// Evaluates one aggregate over a group's values (NULLs skipped).
pub(crate) fn aggregate<'a, I: Iterator<Item = &'a Value>>(
    func: AggFunc,
    distinct: bool,
    vals: I,
) -> Value {
    let mut non_null: Vec<&Value> = vals.filter(|v| !v.is_null()).collect();
    if distinct {
        let mut seen = HashSet::new();
        non_null.retain(|v| seen.insert((*v).clone()));
    }
    match func {
        AggFunc::Count => Value::Int(non_null.len() as i64),
        AggFunc::Sum => {
            let all_int = non_null.iter().all(|v| matches!(v, Value::Int(_)));
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                // Empty group, or nothing numeric (SUM over text): NULL.
                Value::Null
            } else if all_int {
                Value::Int(nums.iter().map(|&f| f as i64).sum())
            } else {
                Value::Float(nums.iter().sum())
            }
        }
        AggFunc::Avg => {
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::Min => non_null.iter().min().map(|v| (*v).clone()).unwrap_or(Value::Null),
        AggFunc::Max => non_null.iter().max().map(|v| (*v).clone()).unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
    use crate::exec::execute;
    use crate::plan::plan;
    use aqks_relational::{AttrType, RelationSchema};

    fn col(q: &str, c: &str) -> ColumnRef {
        ColumnRef::new(q, c)
    }

    /// Two relations keyed on (a, b) with NULLs in the key columns on
    /// BOTH sides; a NULL on either side of either key must not match,
    /// and NULL = NULL must not match either.
    #[test]
    fn multi_key_hash_join_skips_null_keys_on_both_sides() {
        let mut db = Database::new("nulls");
        let mut l = RelationSchema::new("L");
        l.add_attr("A", AttrType::Text).add_attr("B", AttrType::Int).add_attr("X", AttrType::Text);
        db.add_relation(l).unwrap();
        let mut r = RelationSchema::new("R");
        r.add_attr("A", AttrType::Text).add_attr("B", AttrType::Int).add_attr("Y", AttrType::Text);
        db.add_relation(r).unwrap();
        for (a, b, x) in [
            (Value::str("k1"), Value::Int(1), "l1"),
            (Value::str("k1"), Value::Int(2), "l2"),
            (Value::Null, Value::Int(1), "l-null-a"),
            (Value::str("k2"), Value::Null, "l-null-b"),
            (Value::Null, Value::Null, "l-null-both"),
        ] {
            db.insert("L", vec![a, b, Value::str(x)]).unwrap();
        }
        for (a, b, y) in [
            (Value::str("k1"), Value::Int(1), "r1"),
            (Value::str("k1"), Value::Int(1), "r1bis"),
            (Value::Null, Value::Int(1), "r-null-a"),
            (Value::str("k2"), Value::Null, "r-null-b"),
            (Value::Null, Value::Null, "r-null-both"),
        ] {
            db.insert("R", vec![a, b, Value::str(y)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("L", "X"), alias: None },
                SelectItem::Column { col: col("R", "Y"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "L".into(), alias: "L".into() },
                TableExpr::Relation { name: "R".into(), alias: "R".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("L", "A"), col("R", "A")),
                Predicate::JoinEq(col("L", "B"), col("R", "B")),
            ],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run(&p, &db, &ExecCtx::default()).unwrap();
        // Only (k1, 1) matches, twice on the right.
        assert_eq!(t.len(), 2, "{t}");
        for row in &t.rows {
            assert_eq!(row[0], Value::str("l1"));
        }
        // Both join keys were consumed by one multi-key hash join.
        let mut joins = 0;
        p.visit(&mut |n| {
            if let crate::plan::PlanOp::HashJoin { left_keys, .. } = &n.op {
                joins += 1;
                assert_eq!(left_keys.len(), 2);
            }
        });
        assert_eq!(joins, 1);
        assert!(stats.ops.iter().any(|m| m.note.is_some()), "join recorded build/probe note");
    }

    /// Metrics invariants: rows_in of every operator equals the sum of
    /// its children's rows_out, and the root's rows_out matches the
    /// result cardinality.
    #[test]
    fn stats_rows_are_consistent_across_the_tree() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..2500i64 {
            db.insert("T", vec![Value::Int(i % 7), Value::Int(i)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Aggregate {
                    func: crate::ast::AggFunc::Count,
                    arg: col("T", "V"),
                    distinct: false,
                    alias: "n".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            group_by: vec![col("T", "K")],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run(&p, &db, &ExecCtx::default()).unwrap();
        assert_eq!(t.len(), 7);
        p.visit(&mut |n| {
            let expect: u64 = n.children.iter().map(|c| stats.ops[c.id].rows_out).sum();
            assert_eq!(stats.ops[n.id].rows_in, expect, "node {}", n.label());
        });
        assert_eq!(stats.ops[p.id].rows_out, 7);
        // 2500 rows cross the batch boundary: the scan emitted >1 batch.
        let scan = p.children[0].id;
        assert!(stats.ops[scan].batches >= 3, "batched scan: {}", stats.ops[scan].batches);
        assert_eq!(stats.ops[scan].rows_out, 2500);
        // A one-thread run reports threads=1 on every operator.
        assert_eq!(stats.max_threads(), 1);
        assert_eq!(stats.parallel_ops(), 0);
    }

    /// LIMIT stops pulling batches from its input once satisfied: the
    /// scan's first wave is one morsel per thread, and LIMIT 5 never
    /// asks for a second.
    #[test]
    fn limit_short_circuits_the_scan() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..10_000i64 {
            db.insert("T", vec![Value::Int(i)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("T", "V"), alias: None }],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            limit: Some(5),
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        for threads in [1, 2, 4] {
            let (t, stats) = run(&p, &db, &ExecCtx::with_threads(threads)).unwrap();
            assert_eq!(t.len(), 5);
            let mut scan_out = 0;
            p.visit(&mut |n| {
                if matches!(n.op, crate::plan::PlanOp::Scan { .. }) {
                    scan_out = stats.ops[n.id].rows_out;
                }
            });
            assert!(
                scan_out <= (threads * MORSEL) as u64,
                "threads={threads}: scan stopped after its first wave, saw {scan_out}"
            );
        }
    }

    /// Equal results and stable order from repeated runs (the
    /// no-ORDER-BY canonicalization).
    #[test]
    fn repeated_runs_are_identical() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("V", AttrType::Text);
        db.add_relation(s).unwrap();
        for i in 0..50i64 {
            db.insert("T", vec![Value::Int(i % 11), Value::str(format!("v{i}"))]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Column { col: col("T", "V"), alias: None },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            ..Default::default()
        };
        let first = crate::exec::execute(&stmt, &db).unwrap();
        for _ in 0..5 {
            assert_eq!(crate::exec::execute(&stmt, &db).unwrap().rows, first.rows);
        }
        assert!(first.rows.windows(2).all(|w| w[0] <= w[1]));
    }
    /// Helper: a Student-Enrol join statement over a fresh database with
    /// `n` students and `2n` enrolments (Enrol is the larger side, so
    /// the planner builds the hash table from Student).
    fn join_fixture(n: i64) -> (Database, SelectStatement) {
        let mut db = Database::new("gov");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Int).add_attr("Sname", AttrType::Text);
        db.add_relation(s).unwrap();
        let mut e = RelationSchema::new("Enrol");
        e.add_attr("Sid", AttrType::Int).add_attr("Code", AttrType::Text);
        db.add_relation(e).unwrap();
        for i in 0..n {
            db.insert("Student", vec![Value::Int(i), Value::str(format!("s{i}"))]).unwrap();
            for j in 0..2 {
                db.insert("Enrol", vec![Value::Int(i), Value::str(format!("c{j}"))]).unwrap();
            }
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sname"), alias: None },
                SelectItem::Column { col: col("E", "Code"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
            ..Default::default()
        };
        (db, stmt)
    }

    /// Worker pools (morsel scan, partitioned join build, batch probe,
    /// two-phase aggregate) produce byte-identical stabilized results
    /// at every thread count, and the stats record where pools ran.
    #[test]
    fn parallel_execution_matches_sequential() {
        let (db, stmt) = join_fixture(6000);
        let p = plan(&stmt, &db).unwrap();
        let (reference, _) = run(&p, &db, &ExecCtx::default()).unwrap();
        for threads in [2, 4, 8] {
            let (t, stats) = run(&p, &db, &ExecCtx::with_threads(threads)).unwrap();
            assert_eq!(t.rows, reference.rows, "threads={threads}");
            assert!(stats.max_threads() > 1, "parallel sections ran at threads={threads}");
            assert!(stats.parallel_ops() >= 1);
        }
    }

    /// The two-phase aggregate preserves group order, float summation
    /// order, DISTINCT handling and first-row group columns at every
    /// thread count (one chunk at one thread, several above).
    #[test]
    fn parallel_aggregate_matches_sequential() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("F", AttrType::Float).add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..9000i64 {
            let f = if i % 13 == 0 { Value::Null } else { Value::Float((i as f64) * 0.37 - 950.0) };
            db.insert("T", vec![Value::Int(i % 97), f, Value::Int(i % 5)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "s".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Avg,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "a".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("T", "V"),
                    distinct: true,
                    alias: "d".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Min,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "lo".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Max,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "hi".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            group_by: vec![col("T", "K")],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (reference, _) = run(&p, &db, &ExecCtx::default()).unwrap();
        for threads in [2, 3, 4, 8] {
            let (t, _) = run(&p, &db, &ExecCtx::with_threads(threads)).unwrap();
            assert_eq!(t.rows, reference.rows, "threads={threads}");
        }
    }

    /// Row cap sized to survive the build-side scan but not the hash
    /// table it feeds: the trip names `ops.HashJoin.build`, the
    /// materialization site, not the streaming scan.
    #[test]
    fn row_cap_trips_inside_hash_join_build() {
        let (db, stmt) = join_fixture(50);
        let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(60));
        let _g = aqks_guard::install(&gov);
        let err = execute(&stmt, &db).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Rows);
                assert_eq!(t.site, "ops.HashJoin.build");
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
        assert_eq!(gov.trip().map(|t| t.site), Some("ops.HashJoin.build"));
    }

    /// Row charging happens on the plan's thread at the same sites
    /// regardless of thread count, so the cap trips identically under a
    /// parallel run.
    #[test]
    fn row_cap_trips_identically_when_parallel() {
        let (db, stmt) = join_fixture(50);
        let p = plan(&stmt, &db).unwrap();
        let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(60));
        let _g = aqks_guard::install(&gov);
        let err = run(&p, &db, &ExecCtx::with_threads(4)).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Rows);
                assert_eq!(t.site, "ops.HashJoin.build");
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
    }

    /// An expired deadline cancels the plan at the next per-batch
    /// checkpoint instead of running to completion.
    #[test]
    fn expired_deadline_cancels_next_batch() {
        let (db, stmt) = join_fixture(50);
        let gov = aqks_guard::Governor::new(
            &aqks_guard::Budget::unlimited().with_timeout(Duration::ZERO),
        );
        let _g = aqks_guard::install(&gov);
        let err = execute(&stmt, &db).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Deadline);
                assert!(t.site.starts_with("ops."), "deadline caught in an operator: {}", t.site);
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    /// Workers poll the captured governor mid-morsel: an expired
    /// deadline cancels a parallel run with a structured budget trip —
    /// no panic, and the scoped pool joins all workers before returning.
    #[test]
    fn expired_deadline_cancels_parallel_workers() {
        let (db, stmt) = join_fixture(6000);
        let p = plan(&stmt, &db).unwrap();
        let gov = aqks_guard::Governor::new(
            &aqks_guard::Budget::unlimited().with_timeout(Duration::ZERO),
        );
        let _g = aqks_guard::install(&gov);
        let err = run(&p, &db, &ExecCtx::with_threads(4)).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Deadline);
                assert!(t.site.starts_with("ops."), "deadline site: {}", t.site);
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    /// Without an installed governor the same query runs to completion —
    /// the Guarded shim is not even constructed.
    #[test]
    fn ungoverned_plans_are_unaffected() {
        let (db, stmt) = join_fixture(50);
        let t = execute(&stmt, &db).unwrap();
        assert_eq!(t.len(), 100);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn join_build_failpoint_surfaces_typed_error() {
        let (db, stmt) = join_fixture(5);
        aqks_guard::failpoint::enable("join.build");
        let err = execute(&stmt, &db).unwrap_err();
        assert_eq!(err, ExecError::Fault("join.build"));
        aqks_guard::failpoint::disable("join.build");
        assert_eq!(execute(&stmt, &db).unwrap().len(), 10);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn agg_finalize_failpoint_surfaces_typed_error() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int);
        db.add_relation(s).unwrap();
        db.insert("T", vec![Value::Int(1)]).unwrap();
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("T", "K"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            ..Default::default()
        };
        aqks_guard::failpoint::enable("agg.finalize");
        let err = execute(&stmt, &db).unwrap_err();
        assert_eq!(err, ExecError::Fault("agg.finalize"));
        aqks_guard::failpoint::clear();
        assert_eq!(execute(&stmt, &db).unwrap().scalar(), Some(&Value::Int(1)));
    }
}
