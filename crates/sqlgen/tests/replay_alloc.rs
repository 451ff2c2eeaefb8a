//! Cached-rows replay is O(consumers), not O(rows): feeding a
//! materialized shared subtree to a consumer costs Arc reference-count
//! bumps per batch, never a per-row copy. A counting global allocator
//! pins the allocation count of a ~50k-row replay below a fixed bound
//! that a row-by-row copy would exceed by orders of magnitude; only the
//! measuring thread is counted (the libtest harness allocates at will).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aqks_relational::{AttrType, Database, RelationSchema, Value};
use aqks_sqlgen::{
    materialize, plan, ColumnBatch, ColumnRef, ExecCtx, SelectItem, SelectStatement, TableExpr,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and destructor-free, so reading it inside the
    // allocator can neither allocate nor touch torn-down TLS.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TRACKING.try_with(|t| {
            if t.get() {
                ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
            }
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 50k-row replay to 8 consumers stays under a fixed allocation bound
/// per consumer — independent of the cached row count — and the
/// replayed columns are pointer-identical to the cached ones.
#[test]
fn cached_replay_allocations_are_independent_of_row_count() {
    // A tiny base table so the plan builds; the scan is then shadowed
    // by 50k cached rows. If replay silently fell back to scanning, the
    // row-count assertion below would catch it.
    let mut db = Database::new("replay");
    let mut t = RelationSchema::new("T");
    t.add_attr("a", AttrType::Int).add_attr("b", AttrType::Int);
    db.add_relation(t).expect("schema");
    db.insert("T", vec![Value::Int(1), Value::Int(2)]).expect("insert");

    let stmt = SelectStatement {
        distinct: false,
        items: vec![
            SelectItem::Column { col: ColumnRef::new("T", "a"), alias: None },
            SelectItem::Column { col: ColumnRef::new("T", "b"), alias: None },
        ],
        from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
        predicates: vec![],
        group_by: vec![],
        ..Default::default()
    };
    let p = plan(&stmt, &db).expect("plan builds");

    // 50 batches x 1024 rows materialized once, shared at the plan root.
    const BATCH: usize = 1024;
    const BATCHES: usize = 50;
    let cached: Vec<ColumnBatch> = (0..BATCHES)
        .map(|b| {
            let rows: Vec<Vec<Value>> = (0..BATCH)
                .map(|i| vec![Value::Int((b * BATCH + i) as i64), Value::Int(i as i64)])
                .collect();
            ColumnBatch::from_rows(2, &rows)
        })
        .collect();
    let cached = Arc::new(cached);
    let mut ctx = ExecCtx::default();
    ctx.shared.insert(p.id, Arc::clone(&cached));

    // Warm-up consumer: first-touch lazy state must not pollute counts.
    let (warm, _) = materialize(&p, &db, &ctx).expect("replay runs");
    assert_eq!(warm.iter().map(ColumnBatch::len).sum::<usize>(), BATCHES * BATCH);
    assert!(
        Arc::ptr_eq(&warm[0].column_arc(0), &cached[0].column_arc(0)),
        "replayed column is not the cached column"
    );

    // A deep copy of 50k two-column integer rows would allocate at
    // least one Vec per row (>100k allocations); Arc replay needs a few
    // dozen per batch at most. The bound is deliberately generous so it
    // only fails when replay degenerates to copying.
    const PER_CONSUMER_BOUND: usize = 4096;
    for consumer in 0..8 {
        TRACKING.with(|t| t.set(true));
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let out = materialize(&p, &db, &ctx);
        let used = ALLOCATIONS.load(Ordering::SeqCst) - before;
        TRACKING.with(|t| t.set(false));
        let (batches, _) = out.expect("replay runs");
        assert_eq!(batches.iter().map(ColumnBatch::len).sum::<usize>(), BATCHES * BATCH);
        assert!(
            used < PER_CONSUMER_BOUND,
            "consumer {consumer}: replay of {} rows made {used} allocations (bound {})",
            BATCHES * BATCH,
            PER_CONSUMER_BOUND
        );
    }
}
