//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions.
//!
//! The traced pipeline replays one query the way `Engine::execute` runs
//! it — `els_sql::parse` → `canonical_sql` → `PlanCache::get` →
//! `els_sql::bind` → `els_optimizer::optimize_bound` →
//! `els_exec::execute_plan_with` — under one root span per query. Spans
//! stay in memory until the run ends. A span's name is `<layer>.<call>`,
//! and a layer is named after its crate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use els::engine::Engine;
use els_exec::{execute_plan_with, ExecMetrics, ExecMode};
use els_optimizer::{optimize_bound, CachedPlan, PlanCache};
use els_sql::{bind, canonical_sql, parse};

/// Name of the per-query root span; its self time is the glue between
/// layer calls.
pub const ROOT: &str = "engine.query";

/// One closed interval of work, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Query the span belongs to (shared by all spans of one query).
    pub query: u64,
    /// `<layer>.<call>`, or [`ROOT`].
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span (`None` for a root).
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    queries: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), root: None, queries: 0 }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as one query under a fresh root span.
    pub fn query<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let query = self.queries;
        self.queries += 1;
        let start = self.now();
        self.spans.push(Span { query, name: ROOT, start, end: start, parent: None });
        self.root = Some(id);
        let out = f(self);
        self.spans[id].end = self.now();
        self.root = None;
        out
    }

    /// Time one layer call as a child of the current root span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let query = self.queries.saturating_sub(1);
        self.spans.push(Span { query, name, start, end, parent: self.root });
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The layer a span belongs to: the part of its name before the first dot.
pub fn layer(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

/// Per-layer figures derived from the spans of one or more tracers.
#[derive(Debug, Default)]
pub struct Summary {
    /// Traced queries (root spans).
    pub queries: usize,
    /// Sum of root-span durations, ns.
    pub root_ns: u64,
    /// Self time per layer, ns (the root's own self time under `engine`).
    pub self_ns: BTreeMap<String, u64>,
    /// Every call's duration per span name.
    pub calls: BTreeMap<&'static str, Vec<Duration>>,
    /// Root self time per query.
    pub glue: Vec<Duration>,
}

impl Summary {
    /// Fold one tracer's spans into per-layer figures. `Err` when a child
    /// span escapes its root or overlaps a sibling, or a root overlaps
    /// the root before it: one thread runs one call at a time, so
    /// anything else means the spans were recorded wrongly.
    pub fn from_spans(spans: &[Span]) -> Result<Summary, String> {
        let mut summary = Summary::default();
        let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                if spans.get(parent).is_none_or(|p| p.parent.is_some()) {
                    return Err(format!("span `{}` has no root", span.name));
                }
                children.entry(parent).or_default().push(span);
                summary
                    .calls
                    .entry(span.name)
                    .or_default()
                    .push(Duration::from_nanos(span.end - span.start));
            }
        }
        let mut previous_end = 0;
        for (index, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            if root.start < previous_end || root.end < root.start {
                return Err(format!("root of query {} overlaps the query before", root.query));
            }
            previous_end = root.end;
            let kids = children.get(&index).map(Vec::as_slice).unwrap_or(&[]);
            let mut cursor = root.start;
            let mut covered = 0u64;
            for kid in kids {
                if kid.query != root.query || kid.start < cursor || kid.end > root.end {
                    return Err(format!(
                        "span `{}` of query {} is outside its root or overlaps a sibling",
                        kid.name, root.query
                    ));
                }
                cursor = kid.end;
                covered += kid.end - kid.start;
                *summary.self_ns.entry(layer(kid.name).to_owned()).or_default() +=
                    kid.end - kid.start;
            }
            let total = root.end - root.start;
            let glue = total - covered;
            *summary.self_ns.entry(layer(ROOT).to_owned()).or_default() += glue;
            summary.glue.push(Duration::from_nanos(glue));
            summary.root_ns += total;
            summary.queries += 1;
        }
        Ok(summary)
    }

    /// Merge another tracer's summary into this one.
    pub fn absorb(&mut self, other: Summary) {
        self.queries += other.queries;
        self.root_ns += other.root_ns;
        for (layer, ns) in other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        for (name, calls) in other.calls {
            self.calls.entry(name).or_default().extend(calls);
        }
        self.glue.extend(other.glue);
    }

    /// Share of all root time spent in `layer`'s own spans.
    pub fn self_share(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        if self.root_ns == 0 {
            0.0
        } else {
            ns as f64 / self.root_ns as f64
        }
    }

    /// Per-call durations of one span name (empty when never called).
    pub fn calls(&self, name: &str) -> &[Duration] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }
}

/// What one traced query returned.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Result count.
    pub count: u64,
    /// Join order by binding name.
    pub join_order: Vec<String>,
    /// Execution counters.
    pub metrics: ExecMetrics,
}

/// The public-function pipeline against one engine's catalog and options,
/// with a plan cache of its own.
pub struct Pipeline<'a> {
    engine: &'a Engine,
    cache: PlanCache,
    mode: ExecMode,
}

impl<'a> Pipeline<'a> {
    /// A pipeline planning with `engine`'s options, executing in `mode`.
    pub fn new(engine: &'a Engine, mode: ExecMode) -> Pipeline<'a> {
        Pipeline { engine, cache: PlanCache::new(PlanCache::DEFAULT_CAPACITY), mode }
    }

    /// The pipeline's own plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Run one query under a root span.
    pub fn run(&self, tracer: &mut Tracer, sql: &str) -> Result<Traced, String> {
        tracer.query(|t| {
            let ast = t.span("sql.parse", || parse(sql)).map_err(|e| e.to_string())?;
            let options = self.engine.options();
            let fingerprint = t.span("sql.fingerprint", || {
                format!("{}#{:016x}", canonical_sql(&ast), options.config_fingerprint())
            });
            let snapshot = self.engine.snapshot();
            let cached =
                t.span("optimizer.plan_cache", || self.cache.get(&fingerprint, snapshot.epoch()));
            let plan = match cached {
                Some(plan) => plan,
                None => {
                    let bound = t
                        .span("sql.bind", || bind(&ast, snapshot.catalog()))
                        .map_err(|e| e.to_string())?;
                    let optimized = t
                        .span("optimizer.optimize", || {
                            optimize_bound(&bound, snapshot.catalog(), options)
                        })
                        .map_err(|e| e.to_string())?;
                    let plan = Arc::new(CachedPlan {
                        optimized,
                        table_names: bound.table_names,
                        binding_names: bound.binding_names,
                    });
                    t.span("optimizer.plan_cache", || {
                        self.cache.insert(fingerprint, snapshot.epoch(), Arc::clone(&plan))
                    });
                    plan
                }
            };
            let tables = plan
                .table_names
                .iter()
                .map(|name| snapshot.table_data(name))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let out = t
                .span("exec.execute", || {
                    execute_plan_with(&plan.optimized.plan, &tables, self.mode)
                })
                .map_err(|e| e.to_string())?;
            let join_order =
                plan.optimized.join_order.iter().map(|&i| plan.binding_names[i].clone()).collect();
            Ok(Traced { count: out.count, join_order, metrics: out.metrics })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(query: u64, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { query, name, start, end, parent }
    }

    #[test]
    fn self_times_split_the_root_by_layer() {
        let spans = [
            span(0, ROOT, 0, 100, None),
            span(0, "sql.parse", 5, 15, Some(0)),
            span(0, "optimizer.optimize", 20, 80, Some(0)),
            span(0, "exec.execute", 80, 95, Some(0)),
        ];
        let s = Summary::from_spans(&spans).expect("consistent spans");
        assert_eq!(s.queries, 1);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.self_ns["sql"], 10);
        assert_eq!(s.self_ns["optimizer"], 60);
        assert_eq!(s.self_ns["exec"], 15);
        assert_eq!(s.self_ns["engine"], 15);
        assert!((s.self_share("optimizer") - 0.6).abs() < 1e-12);
        assert_eq!(s.glue, vec![Duration::from_nanos(15)]);
    }

    #[test]
    fn escaping_or_overlapping_children_are_rejected() {
        let escaping = [span(0, ROOT, 0, 10, None), span(0, "sql.parse", 5, 12, Some(0))];
        assert!(Summary::from_spans(&escaping).is_err());
        let overlapping = [
            span(0, ROOT, 0, 10, None),
            span(0, "sql.parse", 1, 6, Some(0)),
            span(0, "sql.bind", 5, 8, Some(0)),
        ];
        assert!(Summary::from_spans(&overlapping).is_err());
        let overlapping_roots = [span(0, ROOT, 0, 10, None), span(1, ROOT, 9, 20, None)];
        assert!(Summary::from_spans(&overlapping_roots).is_err());
    }

    #[test]
    fn tracer_nests_layer_calls_under_one_root_per_query() {
        let mut tracer = Tracer::new();
        for _ in 0..3 {
            tracer.query(|t| {
                t.span("sql.parse", || std::hint::black_box(1 + 1));
                t.span("exec.execute", || std::hint::black_box(2 + 2));
            });
        }
        let s = Summary::from_spans(tracer.spans()).expect("consistent spans");
        assert_eq!(s.queries, 3);
        assert_eq!(s.calls("sql.parse").len(), 3);
        assert_eq!(s.calls("exec.execute").len(), 3);
        assert!(s.calls("optimizer.optimize").is_empty());
        let mut merged = Summary::from_spans(tracer.spans()).expect("consistent spans");
        merged.absorb(s);
        assert_eq!((merged.queries, merged.calls("sql.parse").len()), (6, 6));
    }
}
