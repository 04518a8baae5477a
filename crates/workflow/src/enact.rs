//! The enactor: executes a validated workflow over concrete inputs.
//!
//! Execution proceeds in *waves* (antichains of the dependency graph);
//! within a wave every processor runs on its own scoped thread.
//! Implicit iteration follows Taverna's cross-product strategy: whenever an
//! input arrives with more list-nesting than the port declares, the
//! processor is mapped over the elements and its outputs are re-wrapped.

use crate::data::Data;
use crate::model::{PortRef, Workflow};
use crate::processor::{Context, Inputs, Outputs, Processor};
use crate::{Result, WorkflowError};
use qurator_telemetry::span::Span;
use qurator_telemetry::{Histogram, SpanId, SpanKind, SpanRecorder, SpanTrace, TraceSession};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-node invocation spans are capped so implicit iteration over a
/// large collection cannot blow up the trace; the overflow is recorded
/// on the node span as `invocations.dropped`.
const MAX_INVOCATION_SPANS: usize = 4096;

fn wave_width_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("enact.wave.width"))
}

fn node_duration_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("enact.node.duration_ns"))
}

/// Per-node timing and sizing captured during an enactment.
#[derive(Debug, Clone)]
pub struct NodeEvent {
    pub node: String,
    pub processor_type: String,
    pub wave: usize,
    pub duration: Duration,
    /// Sum of scalar leaves over all outputs (rough output volume).
    pub output_leaves: usize,
    /// Number of implicit-iteration invocations (1 = no iteration).
    pub invocations: usize,
    /// The node's span in [`EnactmentReport::trace`].
    pub span: Option<SpanId>,
}

/// The result of one enactment: workflow outputs, the per-node event
/// list (sorted by `(wave, node)` — deterministic regardless of parallel
/// completion order) and the full span tree.
#[derive(Debug, Clone)]
pub struct EnactmentReport {
    pub outputs: BTreeMap<String, Data>,
    pub events: Vec<NodeEvent>,
    pub total: Duration,
    trace: SpanTrace,
    index: BTreeMap<String, usize>,
}

impl EnactmentReport {
    fn new(
        outputs: BTreeMap<String, Data>,
        mut events: Vec<NodeEvent>,
        total: Duration,
        trace: SpanTrace,
    ) -> Self {
        events.sort_by(|a, b| a.wave.cmp(&b.wave).then_with(|| a.node.cmp(&b.node)));
        let index = events.iter().enumerate().map(|(i, e)| (e.node.clone(), i)).collect();
        EnactmentReport { outputs, events, total, trace, index }
    }

    /// The event for a node, if it ran (O(1) via an index map).
    pub fn event(&self, node: &str) -> Option<&NodeEvent> {
        self.index.get(node).map(|&i| &self.events[i])
    }

    /// The hierarchical span tree of this enactment
    /// (view → wave → node → invocation).
    pub fn trace(&self) -> &SpanTrace {
        &self.trace
    }

    /// A one-line-per-node textual trace, ordered by (wave, node).
    pub fn render_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "wave {} | {:<28} | {:<24} | {:>5} calls | {:>7} leaves | {:?}",
                e.wave, e.node, e.processor_type, e.invocations, e.output_leaves, e.duration
            );
        }
        let _ = writeln!(out, "total: {:?}", self.total);
        out
    }

    /// The span tree rendered as an indented hierarchy.
    pub fn render_spans(&self) -> String {
        self.trace.render()
    }
}

/// Enactment engine with a parallelism switch (the E5 ablation compares
/// sequential vs wave-parallel execution).
#[derive(Debug, Clone)]
pub struct Enactor {
    parallel: bool,
}

impl Default for Enactor {
    fn default() -> Self {
        Enactor { parallel: true }
    }
}

impl Enactor {
    /// A wave-parallel enactor (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// A strictly sequential enactor.
    pub fn sequential() -> Self {
        Enactor { parallel: false }
    }

    /// Validates and executes the workflow.
    pub fn run(
        &self,
        workflow: &Workflow,
        inputs: &BTreeMap<String, Data>,
        ctx: &Context,
    ) -> Result<EnactmentReport> {
        workflow.validate()?;
        let started = Instant::now();
        let waves = workflow.waves()?;

        let session = TraceSession::new();
        let mut main_rec = session.recorder();
        let view_span = main_rec.start(format!("view:{}", workflow.name()), SpanKind::View, None);
        main_rec.attr(view_span, "waves", waves.len());
        main_rec.attr(view_span, "parallel", self.parallel);

        // Values produced on output ports so far.
        let mut port_values: BTreeMap<PortRef, Data> = BTreeMap::new();
        let mut events: Vec<NodeEvent> = Vec::new();
        let mut worker_spans: Vec<Span> = Vec::new();

        for (wave_index, wave) in waves.iter().enumerate() {
            wave_width_hist().record(wave.len() as u64);
            let wave_span =
                main_rec.start(format!("wave:{wave_index}"), SpanKind::Wave, Some(view_span));
            main_rec.attr(wave_span, "width", wave.len());

            // Assemble each node's inputs up front (read-only phase).
            let mut jobs: Vec<(String, &Workflow, Inputs)> = Vec::with_capacity(wave.len());
            for node in wave {
                let inputs_for_node = assemble_inputs(workflow, node, inputs, &port_values)?;
                jobs.push((node.clone(), workflow, inputs_for_node));
            }

            // Execute the wave. Each worker records spans into its own
            // buffer (derived from the shared session) and hands it back
            // with the result; nothing is shared between workers but the
            // span-id counter.
            let results: Vec<Result<NodeRun>> = if self.parallel && jobs.len() > 1 {
                std::thread::scope(|scope| {
                    let session = &session;
                    let handles: Vec<_> = jobs
                        .iter()
                        .map(|(node, wf, node_inputs)| {
                            scope.spawn(move || {
                                run_node_guarded(wf, node, node_inputs, ctx, session, wave_span)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .zip(jobs.iter())
                        .map(|(handle, (node, _, _))| match handle.join() {
                            Ok(result) => result,
                            // A worker can only be "gone" if its panic escaped the
                            // catch_unwind (panic-in-panic-payload Drop); still
                            // surface it as this node's execution failure.
                            Err(payload) => Err(panic_to_error(node, payload)),
                        })
                        .collect()
                })
            } else {
                jobs.iter()
                    .map(|(node, wf, node_inputs)| {
                        run_node_guarded(wf, node, node_inputs, ctx, &session, wave_span)
                    })
                    .collect()
            };

            for result in results {
                let run = result?;
                let output_leaves = run.outputs.values().map(Data::leaf_count).sum();
                let processor_type =
                    workflow.processor(&run.node).expect("node exists").type_name().to_string();
                node_duration_hist().record(run.duration.as_nanos() as u64);
                worker_spans.extend(run.spans);
                for (port, value) in run.outputs {
                    port_values.insert(PortRef::new(run.node.clone(), port), value);
                }
                events.push(NodeEvent {
                    node: run.node,
                    processor_type,
                    wave: wave_index,
                    duration: run.duration,
                    output_leaves,
                    invocations: run.invocations,
                    span: Some(run.span),
                });
            }
            main_rec.end(wave_span);
        }

        // Collect workflow outputs.
        let mut outputs = BTreeMap::new();
        for (name, source) in workflow.outputs() {
            let value = port_values.get(source).cloned().ok_or_else(|| {
                WorkflowError::Unknown(format!(
                    "workflow output {name:?} source {source} produced nothing"
                ))
            })?;
            outputs.insert(name.to_string(), value);
        }

        main_rec.attr(view_span, "nodes", events.len());
        main_rec.end(view_span);
        let mut spans = main_rec.finish();
        spans.append(&mut worker_spans);
        let trace = SpanTrace::from_spans(spans);

        Ok(EnactmentReport::new(outputs, events, started.elapsed(), trace))
    }
}

/// Everything a worker hands back for one node.
struct NodeRun {
    node: String,
    outputs: Outputs,
    duration: Duration,
    invocations: usize,
    /// The node's own span id (parent of its invocation spans).
    span: SpanId,
    /// The worker's span buffer: the node span plus invocation spans.
    spans: Vec<Span>,
}

/// Renders a panic payload (`&str` or `String`, the two forms `panic!`
/// produces) as an [`WorkflowError::Execution`] for the given node.
fn panic_to_error(node: &str, payload: Box<dyn std::any::Any + Send>) -> WorkflowError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    WorkflowError::Execution {
        processor: node.to_string(),
        message: format!("processor panicked: {message}"),
    }
}

/// Runs a node, converting a panicking processor into a regular
/// [`WorkflowError::Execution`] instead of aborting the whole enactment
/// (a panic on a worker thread used to take down the scope).
fn run_node_guarded(
    workflow: &Workflow,
    node: &str,
    inputs: &Inputs,
    ctx: &Context,
    session: &TraceSession,
    wave_span: SpanId,
) -> Result<NodeRun> {
    catch_unwind(AssertUnwindSafe(|| run_node(workflow, node, inputs, ctx, session, wave_span)))
        .unwrap_or_else(|payload| Err(panic_to_error(node, payload)))
}

fn run_node(
    workflow: &Workflow,
    node: &str,
    inputs: &Inputs,
    ctx: &Context,
    session: &TraceSession,
    wave_span: SpanId,
) -> Result<NodeRun> {
    let processor = workflow.processor(node).expect("validated");
    let mut rec = session.recorder();
    let node_span = rec.start(format!("node:{node}"), SpanKind::Node, Some(wave_span));
    rec.attr(node_span, "processor", processor.type_name());
    let started = Instant::now();
    let mut invocations = 0usize;
    let mut tracer = InvocationTracer { rec: &mut rec, parent: node_span, recorded: 0 };
    let outputs =
        invoke_with_iteration(processor.as_ref(), inputs, ctx, &mut invocations, &mut tracer)
            .map_err(|e| match e {
                WorkflowError::Execution { .. } | WorkflowError::MissingInput { .. } => e,
                other => WorkflowError::Execution {
                    processor: node.to_string(),
                    message: other.to_string(),
                },
            })?;
    let dropped = invocations.saturating_sub(tracer.recorded);
    rec.attr(node_span, "invocations", invocations);
    if dropped > 0 {
        rec.attr(node_span, "invocations.dropped", dropped);
    }
    rec.end(node_span);
    Ok(NodeRun {
        node: node.to_string(),
        outputs,
        duration: started.elapsed(),
        invocations,
        span: node_span,
        spans: rec.finish(),
    })
}

/// Wraps leaf processor invocations in [`SpanKind::Invocation`] spans,
/// up to [`MAX_INVOCATION_SPANS`] per node.
struct InvocationTracer<'a> {
    rec: &'a mut SpanRecorder,
    parent: SpanId,
    recorded: usize,
}

impl InvocationTracer<'_> {
    fn invoke(
        &mut self,
        processor: &dyn Processor,
        inputs: &Inputs,
        ctx: &Context,
        index: usize,
    ) -> Result<Outputs> {
        if self.recorded >= MAX_INVOCATION_SPANS {
            return processor.execute(inputs, ctx);
        }
        self.recorded += 1;
        let span =
            self.rec.start(format!("invoke:{index}"), SpanKind::Invocation, Some(self.parent));
        let result = processor.execute(inputs, ctx);
        self.rec.end(span);
        result
    }
}

fn assemble_inputs(
    workflow: &Workflow,
    node: &str,
    workflow_inputs: &BTreeMap<String, Data>,
    port_values: &BTreeMap<PortRef, Data>,
) -> Result<Inputs> {
    let processor = workflow.processor(node).expect("validated");
    let mut assembled: Inputs = BTreeMap::new();
    for (port, _) in processor.input_ports() {
        let port_ref = PortRef::new(node, port.clone());
        // data link feeding the port?
        let from_link =
            workflow.data_links().iter().find(|l| l.to == port_ref).map(|l| l.from.clone());
        if let Some(from) = from_link {
            let value = port_values.get(&from).cloned().ok_or_else(|| {
                WorkflowError::MissingInput { processor: node.to_string(), port: port.clone() }
            })?;
            assembled.insert(port, value);
            continue;
        }
        // workflow input feeding the port?
        if let Some(name) = workflow.input_feeds(&port_ref) {
            let value =
                workflow_inputs.get(name).cloned().ok_or_else(|| WorkflowError::MissingInput {
                    processor: format!("workflow input {name:?}"),
                    port: port.clone(),
                })?;
            assembled.insert(port, value);
        }
        // otherwise: optional port (validate() guaranteed), stays absent
    }
    Ok(assembled)
}

/// Invokes a processor with Taverna-style implicit iteration.
///
/// Strategy selection mirrors Taverna's iteration strategies:
/// * when *several* ports are deeper than declared and their top-level
///   lists have equal length, they are zipped element-wise (**dot
///   product** — the natural strategy for aligned per-spot streams);
/// * otherwise the first too-deep port is expanded on its own and the
///   rest are handled recursively (**cross product**).
fn invoke_with_iteration(
    processor: &dyn Processor,
    inputs: &Inputs,
    ctx: &Context,
    invocations: &mut usize,
    tracer: &mut InvocationTracer<'_>,
) -> Result<Outputs> {
    let deep_ports: Vec<String> = processor
        .input_ports()
        .into_iter()
        .filter_map(|(port, declared)| {
            inputs.get(&port).filter(|v| v.depth() > declared).map(|_| port)
        })
        .collect();
    if deep_ports.is_empty() {
        *invocations += 1;
        return tracer.invoke(processor, inputs, ctx, *invocations);
    }

    let list_of = |port: &str| -> &Vec<Data> {
        match &inputs[port] {
            Data::List(items) => items,
            // depth > declared implies a list at the top level
            _ => unreachable!("depth > 0 but not a list"),
        }
    };

    // dot product across all deep ports when their lengths agree
    let first_len = list_of(&deep_ports[0]).len();
    let dot = deep_ports.len() > 1 && deep_ports.iter().all(|p| list_of(p).len() == first_len);

    let mut collected: BTreeMap<String, Vec<Data>> = BTreeMap::new();
    if dot {
        for index in 0..first_len {
            let mut sub = inputs.clone();
            for port in &deep_ports {
                sub.insert(port.clone(), list_of(port)[index].clone());
            }
            let out = invoke_with_iteration(processor, &sub, ctx, invocations, tracer)?;
            for (k, v) in out {
                collected.entry(k).or_default().push(v);
            }
        }
    } else {
        let port = &deep_ports[0];
        for item in list_of(port) {
            let mut sub = inputs.clone();
            sub.insert(port.clone(), item.clone());
            let out = invoke_with_iteration(processor, &sub, ctx, invocations, tracer)?;
            for (k, v) in out {
                collected.entry(k).or_default().push(v);
            }
        }
    }
    let mut wrapped: Outputs = BTreeMap::new();
    for name in processor.output_ports() {
        let values = collected.remove(&name).unwrap_or_default();
        wrapped.insert(name, Data::List(values));
    }
    Ok(wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::FnProcessor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn upper() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::map1("upper", "in", "out", |v, _| {
            Ok(Data::Text(v.as_text().unwrap_or("").to_uppercase()))
        }))
    }

    #[test]
    fn runs_a_chain() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        w.declare_output("result", PortRef::new("u", "out")).unwrap();
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("text".to_string(), "hi".into())]), &Context::new())
            .unwrap();
        assert_eq!(report.outputs["result"], Data::Text("HI".into()));
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.event("u").unwrap().invocations, 1);
    }

    #[test]
    fn implicit_iteration_maps_lists() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        w.declare_output("result", PortRef::new("u", "out")).unwrap();
        let input = Data::list(["a".into(), "b".into(), "c".into()]);
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("text".to_string(), input)]), &Context::new())
            .unwrap();
        assert_eq!(report.outputs["result"], Data::list(["A".into(), "B".into(), "C".into()]));
        assert_eq!(report.event("u").unwrap().invocations, 3);
    }

    #[test]
    fn nested_iteration_preserves_structure() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        w.declare_output("result", PortRef::new("u", "out")).unwrap();
        let input = Data::list([Data::list(["a".into()]), Data::list(["b".into(), "c".into()])]);
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("text".to_string(), input)]), &Context::new())
            .unwrap();
        assert_eq!(
            report.outputs["result"],
            Data::list([Data::list(["A".into()]), Data::list(["B".into(), "C".into()])])
        );
    }

    #[test]
    fn list_port_receives_whole_list() {
        // declared depth 1: no iteration even for list input
        let p = FnProcessor::new("count", &[("items", 1)], &["n"], |inputs, _| {
            let n = inputs["items"].as_list().map(|l| l.len()).unwrap_or(0);
            Ok(BTreeMap::from([("n".to_string(), Data::from(n as i64))]))
        });
        let mut w = Workflow::new("t");
        w.add("c", Arc::new(p)).unwrap();
        w.declare_input("items", PortRef::new("c", "items")).unwrap();
        w.declare_output("n", PortRef::new("c", "n")).unwrap();
        let input = Data::list(["a".into(), "b".into()]);
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("items".to_string(), input)]), &Context::new())
            .unwrap();
        assert_eq!(report.outputs["n"], Data::from(2i64));
        assert_eq!(report.event("c").unwrap().invocations, 1);
    }

    #[test]
    fn diamond_executes_in_waves_and_parallel_matches_sequential() {
        fn make() -> Workflow {
            let src = FnProcessor::new("src", &[], &["out"], |_, _| {
                Ok(BTreeMap::from([("out".to_string(), Data::from(2.0))]))
            });
            let double = |name: &str| {
                Arc::new(FnProcessor::map1(name, "in", "out", |v, _| {
                    Ok(Data::Number(v.as_number().unwrap() * 2.0))
                }))
            };
            let sum = FnProcessor::new("sum", &[("a", 0), ("b", 0)], &["out"], |inputs, _| {
                let a = inputs["a"].as_number().unwrap();
                let b = inputs["b"].as_number().unwrap();
                Ok(BTreeMap::from([("out".to_string(), Data::from(a + b))]))
            });
            let mut w = Workflow::new("diamond");
            w.add("s", Arc::new(src)).unwrap();
            w.add("l", double("dl")).unwrap();
            w.add("r", double("dr")).unwrap();
            w.add("j", Arc::new(sum)).unwrap();
            w.link("s", "out", "l", "in").unwrap();
            w.link("s", "out", "r", "in").unwrap();
            w.link("l", "out", "j", "a").unwrap();
            w.link("r", "out", "j", "b").unwrap();
            w.declare_output("total", PortRef::new("j", "out")).unwrap();
            w
        }
        let ctx = Context::new();
        let par = Enactor::new().run(&make(), &BTreeMap::new(), &ctx).unwrap();
        let seq = Enactor::sequential().run(&make(), &BTreeMap::new(), &ctx).unwrap();
        assert_eq!(par.outputs["total"], Data::from(8.0));
        assert_eq!(seq.outputs["total"], par.outputs["total"]);
        assert_eq!(par.event("l").unwrap().wave, 1);
        assert_eq!(par.event("j").unwrap().wave, 2);
    }

    #[test]
    fn execution_errors_carry_node_name() {
        let bad = FnProcessor::new("boom", &[], &["out"], |_, _| {
            Err(WorkflowError::Execution { processor: "boom".into(), message: "kaput".into() })
        });
        let mut w = Workflow::new("t");
        w.add("b", Arc::new(bad)).unwrap();
        let err = Enactor::new().run(&w, &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::Execution { .. }));
    }

    #[test]
    fn panicking_processor_in_parallel_wave_is_an_execution_error() {
        // Two independent nodes in one wave so the parallel path is taken;
        // one of them panics mid-execute.
        let ok = FnProcessor::new("ok", &[], &["out"], |_, _| {
            Ok(BTreeMap::from([("out".to_string(), Data::from(1.0))]))
        });
        let bad =
            FnProcessor::new("panics", &[], &["out"], |_, _| panic!("simulated worker crash"));
        let mut w = Workflow::new("t");
        w.add("good", Arc::new(ok)).unwrap();
        w.add("bad", Arc::new(bad)).unwrap();
        w.declare_output("x", PortRef::new("good", "out")).unwrap();
        let err = Enactor::new().run(&w, &BTreeMap::new(), &Context::new()).unwrap_err();
        match err {
            WorkflowError::Execution { processor, message } => {
                assert_eq!(processor, "bad");
                assert!(message.contains("simulated worker crash"), "message: {message}");
            }
            other => panic!("expected Execution error, got {other:?}"),
        }
    }

    #[test]
    fn panicking_processor_in_sequential_run_is_an_execution_error() {
        let bad = FnProcessor::new("panics", &[], &["out"], |_, _| panic!("sequential crash"));
        let mut w = Workflow::new("t");
        w.add("bad", Arc::new(bad)).unwrap();
        let err = Enactor::sequential().run(&w, &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(
            matches!(err, WorkflowError::Execution { ref processor, .. } if processor == "bad")
        );
    }

    #[test]
    fn missing_workflow_input_is_reported() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        let err = Enactor::new().run(&w, &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::MissingInput { .. }));
    }

    #[test]
    fn context_resources_reach_processors() {
        let counter = Arc::new(AtomicUsize::new(0));
        let p = FnProcessor::new("bump", &[], &["out"], |_, ctx| {
            let c = ctx.require::<AtomicUsize>("counter", "bump")?;
            c.fetch_add(1, Ordering::SeqCst);
            Ok(BTreeMap::from([("out".to_string(), Data::Null)]))
        });
        let mut w = Workflow::new("t");
        w.add("b", Arc::new(p)).unwrap();
        let mut ctx = Context::new();
        ctx.insert("counter", counter.clone());
        Enactor::new().run(&w, &BTreeMap::new(), &ctx).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn span_tree_is_well_formed_under_parallel_enactment() {
        // A wide wave of independent nodes with implicit iteration, so
        // several workers record node + invocation spans concurrently.
        let mut w = Workflow::new("wide");
        for i in 0..6 {
            w.add(format!("u{i}"), upper()).unwrap();
            w.declare_input(format!("t{i}"), PortRef::new(format!("u{i}"), "in")).unwrap();
            w.declare_output(format!("r{i}"), PortRef::new(format!("u{i}"), "out")).unwrap();
        }
        let inputs: BTreeMap<String, Data> = (0..6)
            .map(|i| (format!("t{i}"), Data::list(["a".into(), "b".into(), "c".into()])))
            .collect();
        let report = Enactor::new().run(&w, &inputs, &Context::new()).unwrap();
        let trace = report.trace();
        // every span closed, every parent exists, intervals nest
        trace.validate().unwrap();
        // exactly one root: the view span
        let roots: Vec<_> = trace.roots().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "view:wide");
        assert_eq!(roots[0].kind, SpanKind::View);
        // one wave with 6 node children, each with 3 invocation spans
        let waves = trace.children(roots[0].id);
        assert_eq!(waves.len(), 1);
        let nodes = trace.children(waves[0].id);
        assert_eq!(nodes.len(), 6);
        for node in &nodes {
            assert_eq!(node.kind, SpanKind::Node);
            let invocations = trace.children(node.id);
            assert_eq!(invocations.len(), 3);
            assert!(invocations.iter().all(|s| s.kind == SpanKind::Invocation));
        }
        // events link back to their node spans
        for event in &report.events {
            let span = report.trace().span(event.span.unwrap()).unwrap();
            assert_eq!(span.name, format!("node:{}", event.node));
        }
        // span ids are unique across workers
        let mut ids: Vec<u64> = trace.spans().iter().map(|s| s.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
    }

    #[test]
    fn events_are_sorted_and_event_lookup_is_indexed() {
        let mut w = Workflow::new("t");
        // nodes added in non-alphabetical order, one wave
        for name in ["zeta", "alpha", "mid"] {
            w.add(name, upper()).unwrap();
            w.declare_input(format!("in_{name}"), PortRef::new(name, "in")).unwrap();
            w.declare_output(format!("out_{name}"), PortRef::new(name, "out")).unwrap();
        }
        let inputs: BTreeMap<String, Data> =
            ["zeta", "alpha", "mid"].iter().map(|n| (format!("in_{n}"), "x".into())).collect();
        let report = Enactor::new().run(&w, &inputs, &Context::new()).unwrap();
        let order: Vec<&str> = report.events.iter().map(|e| e.node.as_str()).collect();
        assert_eq!(order, vec!["alpha", "mid", "zeta"]);
        for name in ["zeta", "alpha", "mid"] {
            assert_eq!(report.event(name).unwrap().node, name);
        }
        assert!(report.event("missing").is_none());
    }

    #[test]
    fn invocation_spans_are_capped() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        w.declare_output("result", PortRef::new("u", "out")).unwrap();
        let big = Data::List((0..MAX_INVOCATION_SPANS + 10).map(|_| "x".into()).collect());
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("text".to_string(), big)]), &Context::new())
            .unwrap();
        let event = report.event("u").unwrap();
        assert_eq!(event.invocations, MAX_INVOCATION_SPANS + 10);
        let node_span = report.trace().span(event.span.unwrap()).unwrap();
        assert_eq!(
            node_span.attr("invocations.dropped"),
            Some(&qurator_telemetry::AttrValue::Int(10))
        );
        assert_eq!(report.trace().children(node_span.id).len(), MAX_INVOCATION_SPANS);
        report.trace().validate().unwrap();
    }

    #[test]
    fn trace_rendering() {
        let mut w = Workflow::new("t");
        w.add("u", upper()).unwrap();
        w.declare_input("text", PortRef::new("u", "in")).unwrap();
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("text".to_string(), "x".into())]), &Context::new())
            .unwrap();
        let trace = report.render_trace();
        assert!(trace.contains("upper"));
        assert!(trace.contains("total:"));
    }
}

#[cfg(test)]
mod iteration_strategy_tests {
    use super::*;
    use crate::processor::FnProcessor;
    use std::sync::Arc;

    fn pair_sum() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::new("sum2", &[("a", 0), ("b", 0)], &["out"], |inputs, _| {
            let a = inputs["a"].as_number().unwrap();
            let b = inputs["b"].as_number().unwrap();
            Ok(BTreeMap::from([("out".to_string(), Data::from(a + b))]))
        }))
    }

    fn run_pairwise(a: Data, b: Data) -> (Data, usize) {
        let mut w = Workflow::new("t");
        w.add("s", pair_sum()).unwrap();
        w.declare_input("a", PortRef::new("s", "a")).unwrap();
        w.declare_input("b", PortRef::new("s", "b")).unwrap();
        w.declare_output("out", PortRef::new("s", "out")).unwrap();
        let report = Enactor::new()
            .run(&w, &BTreeMap::from([("a".to_string(), a), ("b".to_string(), b)]), &Context::new())
            .unwrap();
        (report.outputs["out"].clone(), report.event("s").unwrap().invocations)
    }

    #[test]
    fn equal_length_lists_zip_as_dot_product() {
        let a = Data::list([1i64.into(), 2i64.into(), 3i64.into()]);
        let b = Data::list([10i64.into(), 20i64.into(), 30i64.into()]);
        let (out, invocations) = run_pairwise(a, b);
        assert_eq!(out, Data::list([11.0.into(), 22.0.into(), 33.0.into()]));
        assert_eq!(invocations, 3, "dot product, not 9");
    }

    #[test]
    fn unequal_lengths_fall_back_to_cross_product() {
        let a = Data::list([1i64.into(), 2i64.into()]);
        let b = Data::list([10i64.into(), 20i64.into(), 30i64.into()]);
        let (out, invocations) = run_pairwise(a, b);
        assert_eq!(invocations, 6);
        // cross product nests: for each a, a list over b
        assert_eq!(
            out,
            Data::list([
                Data::list([11.0.into(), 21.0.into(), 31.0.into()]),
                Data::list([12.0.into(), 22.0.into(), 32.0.into()]),
            ])
        );
    }

    #[test]
    fn one_deep_one_scalar_iterates_the_deep_port() {
        let a = Data::list([1i64.into(), 2i64.into()]);
        let b = Data::from(100i64);
        let (out, invocations) = run_pairwise(a, b);
        assert_eq!(out, Data::list([101.0.into(), 102.0.into()]));
        assert_eq!(invocations, 2);
    }
}
