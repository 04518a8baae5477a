//! Deployment: embedding a compiled quality workflow inside a host
//! experiment workflow (§6.2).
//!
//! "Two main elements must be considered, (i) a set of adapters that
//! surround the embedded quality flows, and (ii) the connections among
//! host and embedded processors." This module builds the
//! [`EmbedDescriptor`] for the canonical interposition pattern of
//! Figure 6: sever a host edge, route the producer's output through an
//! input adapter into the quality flow's `dataset` ports, and route one
//! action group's surviving data through an output adapter back into the
//! host consumer.

use crate::compile::DATASET_INPUT;
use crate::{QuratorError, Result};
use qurator_workflow::{Connector, EmbedDescriptor, PortRef, Processor, Workflow};
use std::sync::Arc;

/// A deployment plan for one quality view.
pub struct DeploymentPlan {
    /// Node-name prefix for the embedded quality flow.
    pub prefix: String,
    /// The host edge to sever and interpose on.
    pub severed: (PortRef, PortRef),
    /// Adapter converting the host producer's output into the data-set
    /// encoding (ports: `in` → `out`).
    pub input_adapter: (String, Arc<dyn Processor>),
    /// Which action output group feeds the host consumer.
    pub output_group: String,
    /// Adapter converting the surviving group record back into the host
    /// consumer's format (ports: `in` → `out`).
    pub output_adapter: (String, Arc<dyn Processor>),
}

impl DeploymentPlan {
    /// Builds the §6.2 deployment descriptor for a compiled view and
    /// applies it to the host workflow.
    pub fn apply(&self, host: &mut Workflow, quality: &Workflow) -> Result<()> {
        // find where the QV expects its data set and which node/port
        // produces the requested group
        let dataset_targets: Vec<PortRef> = quality
            .inputs()
            .find(|(name, _)| *name == DATASET_INPUT)
            .map(|(_, targets)| targets.to_vec())
            .ok_or_else(|| {
                QuratorError::Execution(format!(
                    "quality workflow {:?} declares no {DATASET_INPUT:?} input",
                    quality.name()
                ))
            })?;
        let group_source: PortRef = quality
            .outputs()
            .find(|(name, _)| *name == self.output_group)
            .map(|(_, source)| source.clone())
            .ok_or_else(|| {
                QuratorError::Execution(format!(
                    "quality workflow {:?} has no output group {:?} (available: {:?})",
                    quality.name(),
                    self.output_group,
                    quality.outputs().map(|(n, _)| n).collect::<Vec<_>>()
                ))
            })?;

        let (in_name, in_proc) = &self.input_adapter;
        let (out_name, out_proc) = &self.output_adapter;
        let mut descriptor = EmbedDescriptor::new()
            .severing(self.severed.0.clone(), self.severed.1.clone())
            .with_adapter(in_name.clone(), in_proc.clone())
            .with_adapter(out_name.clone(), out_proc.clone())
            // host producer -> input adapter
            .with_connector(Connector::new(
                &self.severed.0.processor,
                &self.severed.0.port,
                in_name,
                "in",
            ))
            // output group -> output adapter -> host consumer
            .with_connector(Connector::new(
                &format!("{}/{}", self.prefix, group_source.processor),
                &group_source.port,
                out_name,
                "in",
            ))
            .with_connector(Connector::new(
                out_name,
                "out",
                &self.severed.1.processor,
                &self.severed.1.port,
            ));
        // input adapter -> every dataset port of the quality flow
        for target in dataset_targets {
            descriptor = descriptor.with_connector(Connector::new(
                in_name,
                "out",
                &format!("{}/{}", self.prefix, target.processor),
                &target.port,
            ));
        }

        host.embed(quality, &self.prefix, &descriptor).map_err(QuratorError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert;
    use crate::engine::QualityEngine;
    use crate::spec::{ActionKind, QualityViewSpec};
    use qurator_annotations::EvidenceValue;
    use qurator_rdf::term::Term;
    use qurator_services::DataSet;
    use qurator_workflow::{Context, Data, Enactor, FnProcessor};
    use std::collections::BTreeMap;

    /// host: producer (emits imprint-shaped records) -> consumer (counts
    /// surviving items). The QV is interposed on that edge.
    #[test]
    fn interpose_compiled_view_into_host() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
        let quality = engine.compile(&spec).unwrap();

        // --- host ---
        let producer = FnProcessor::new("producer", &[], &["hits"], |_, _| {
            let mut ds = DataSet::new();
            let rows: [(u32, f64, f64, i64); 4] =
                [(1, 0.9, 45.0, 12), (2, 0.6, 28.0, 8), (3, 0.3, 12.0, 4), (4, 0.05, 2.0, 1)];
            for (i, hr, mc, pc) in rows {
                ds.push(
                    Term::iri(format!("urn:lsid:t:h:{i}")),
                    [
                        ("hitRatio", EvidenceValue::from(hr)),
                        ("massCoverage", EvidenceValue::from(mc)),
                        ("peptidesCount", EvidenceValue::from(pc)),
                    ],
                );
            }
            Ok(BTreeMap::from([("hits".to_string(), convert::dataset_to_data(&ds))]))
        });
        let consumer = FnProcessor::map1("consumer", "in", "count", |v, _| {
            let n = v.field("items").and_then(Data::as_list).map(|l| l.len()).unwrap_or(0);
            Ok(Data::Number(n as f64))
        });
        let mut host = Workflow::new("ispider");
        host.add("producer", std::sync::Arc::new(producer)).unwrap();
        host.add("consumer", std::sync::Arc::new(consumer)).unwrap();
        host.link("producer", "hits", "consumer", "in").unwrap();
        host.declare_output("surviving", PortRef::new("consumer", "count")).unwrap();

        // --- adapters ---
        // producer already emits the dataset encoding: identity adapter in
        let in_adapter = FnProcessor::map1("dataset-in", "in", "out", |v, _| Ok(v.clone()));
        // group record -> bare dataset encoding for the consumer
        let out_adapter = FnProcessor::map1("dataset-out", "in", "out", |v, _| {
            v.field("dataset").cloned().ok_or_else(|| qurator_workflow::WorkflowError::Execution {
                processor: "dataset-out".into(),
                message: "group record lacks dataset".into(),
            })
        });

        let plan = DeploymentPlan {
            prefix: "qv".into(),
            severed: (PortRef::new("producer", "hits"), PortRef::new("consumer", "in")),
            input_adapter: ("adapt-in".into(), std::sync::Arc::new(in_adapter)),
            output_group: "filter top k score".into(),
            output_adapter: ("adapt-out".into(), std::sync::Arc::new(out_adapter)),
        };
        plan.apply(&mut host, &quality).unwrap();

        let report = Enactor::new().run(&host, &BTreeMap::new(), &Context::new()).unwrap();
        let surviving = report.outputs["surviving"].as_number().unwrap() as usize;
        assert!(surviving > 0 && surviving < 4, "surviving = {surviving}");

        // compare with direct interpretation over the same data
        let mut ds = DataSet::new();
        let rows: [(u32, f64, f64, i64); 4] =
            [(1, 0.9, 45.0, 12), (2, 0.6, 28.0, 8), (3, 0.3, 12.0, 4), (4, 0.05, 2.0, 1)];
        for (i, hr, mc, pc) in rows {
            ds.push(
                Term::iri(format!("urn:lsid:t:h:{i}")),
                [
                    ("hitRatio", EvidenceValue::from(hr)),
                    ("massCoverage", EvidenceValue::from(mc)),
                    ("peptidesCount", EvidenceValue::from(pc)),
                ],
            );
        }
        let direct = engine.execute_view(&spec, &ds).unwrap();
        assert_eq!(direct.group("filter top k score").unwrap().dataset.len(), surviving);
    }

    #[test]
    fn missing_group_is_reported() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let quality = engine.compile(&QualityViewSpec::paper_example()).unwrap();
        let mut host = Workflow::new("h");
        let src = FnProcessor::new("src", &[], &["out"], |_, _| {
            Ok(BTreeMap::from([("out".to_string(), Data::Null)]))
        });
        let sink = FnProcessor::map1("sink", "in", "out", |v, _| Ok(v.clone()));
        host.add("src", std::sync::Arc::new(src)).unwrap();
        host.add("sink", std::sync::Arc::new(sink)).unwrap();
        host.link("src", "out", "sink", "in").unwrap();
        let plan = DeploymentPlan {
            prefix: "qv".into(),
            severed: (PortRef::new("src", "out"), PortRef::new("sink", "in")),
            input_adapter: (
                "a-in".into(),
                std::sync::Arc::new(FnProcessor::map1("a", "in", "out", |v, _| Ok(v.clone()))),
            ),
            output_group: "no such group".into(),
            output_adapter: (
                "a-out".into(),
                std::sync::Arc::new(FnProcessor::map1("b", "in", "out", |v, _| Ok(v.clone()))),
            ),
        };
        let err = plan.apply(&mut host, &quality).unwrap_err();
        assert!(err.to_string().contains("no output group"));
    }
}
