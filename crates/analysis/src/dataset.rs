//! On-disk dataset format for standalone linting at scale.
//!
//! A dataset is a directory:
//!
//! ```text
//! dataset/
//!   topology.json     # optional: nodes + links (latency_ns, capacity)
//!   context.json      # optional: installed versions per flow
//!   plans/
//!     00000.p4u       # one prepared plan per file, batch order =
//!     00001.p4u       # lexicographic file order
//!     ...
//! ```
//!
//! Every file is hand-rolled JSON ([`crate::Json`]); the format
//! round-trips exactly — [`export_dataset`] then [`load_dataset`] yields
//! plans comparing equal to the originals, so on-disk lint results are
//! byte-identical to in-memory analysis (asserted by `scripts/check.sh`'s
//! round-trip step). Plans are serialized in *prepared* form (labels,
//! segmentation, UIMs included, not re-derived on load) so corrupted
//! artifacts remain representable and lintable.

use crate::engine::{BatchAnalysis, BatchAnalyzer};
use crate::{AnalysisContext, Json};
use p4update_core::{PreparedUpdate, Segment, Segmentation};
use p4update_des::SimDuration;
use p4update_messages::{Uim, UpdateKind};
use p4update_net::{FlowId, FlowUpdate, NodeId, Path, Topology, TopologyBuilder, Version};
use std::collections::BTreeMap;
use std::path::Path as FsPath;

/// Schema tag written into `topology.json` and every `.p4u` file.
pub const DATASET_SCHEMA: &str = "p4update-dataset-v1";

/// A dataset loaded from disk: the optional topology, the plan batch (in
/// file order), and the installed-version context.
#[derive(Debug)]
pub struct Dataset {
    /// The topology, when `topology.json` was present.
    pub topology: Option<Topology>,
    /// The plan batch, in lexicographic file order.
    pub plans: Vec<PreparedUpdate>,
    /// Installed versions from `context.json` (empty when absent).
    pub installed: BTreeMap<FlowId, Version>,
}

impl Dataset {
    /// The analysis context this dataset describes.
    pub fn context(&self) -> AnalysisContext<'_> {
        AnalysisContext {
            topo: self.topology.as_ref(),
            installed: self.installed.clone(),
        }
    }

    /// Lint the whole dataset.
    pub fn lint(&self) -> BatchAnalysis {
        BatchAnalyzer::new(1).analyze(&self.plans, &self.context())
    }
}

/// Write `plans` (plus optional topology and installed-version context)
/// as a dataset directory. Creates `dir` and `dir/plans`; existing plan
/// files are removed first so the directory holds exactly this batch.
pub fn export_dataset(
    dir: &FsPath,
    topo: Option<&Topology>,
    plans: &[PreparedUpdate],
    installed: &BTreeMap<FlowId, Version>,
) -> std::io::Result<()> {
    let plans_dir = dir.join("plans");
    std::fs::create_dir_all(&plans_dir)?;
    for entry in std::fs::read_dir(&plans_dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "p4u") {
            std::fs::remove_file(path)?;
        }
    }
    if let Some(t) = topo {
        std::fs::write(
            dir.join("topology.json"),
            topology_json(t).to_string_pretty(),
        )?;
    }
    if !installed.is_empty() {
        std::fs::write(
            dir.join("context.json"),
            context_json(installed).to_string_pretty(),
        )?;
    }
    for (i, plan) in plans.iter().enumerate() {
        std::fs::write(
            plans_dir.join(format!("{i:05}.p4u")),
            plan_json(plan).to_string_pretty(),
        )?;
    }
    Ok(())
}

/// Load a dataset directory. `topology.json` and `context.json` are
/// optional; `plans/` must exist (an empty batch is legal).
pub fn load_dataset(dir: &FsPath) -> Result<Dataset, String> {
    let read = |p: &FsPath| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let topology = {
        let p = dir.join("topology.json");
        if p.is_file() {
            Some(parse_topology(
                &Json::parse(&read(&p)?).map_err(|e| format!("{}: {e}", p.display()))?,
            )?)
        } else {
            None
        }
    };
    let installed = {
        let p = dir.join("context.json");
        if p.is_file() {
            parse_context(&Json::parse(&read(&p)?).map_err(|e| format!("{}: {e}", p.display()))?)?
        } else {
            BTreeMap::new()
        }
    };
    let plans_dir = dir.join("plans");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&plans_dir)
        .map_err(|e| format!("{}: {e}", plans_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "p4u"))
        .collect();
    files.sort();
    let mut plans = Vec::with_capacity(files.len());
    for p in files {
        let doc = Json::parse(&read(&p)?).map_err(|e| format!("{}: {e}", p.display()))?;
        plans.push(parse_plan(&doc).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(Dataset {
        topology,
        plans,
        installed,
    })
}

// ---- serialization -------------------------------------------------------

fn num(n: f64) -> Json {
    Json::Num(n)
}

fn node(id: NodeId) -> Json {
    num(f64::from(id.0))
}

fn opt_node(id: Option<NodeId>) -> Json {
    id.map_or(Json::Null, node)
}

fn path_json(p: &Path) -> Json {
    Json::Arr(p.nodes().iter().map(|&n| node(n)).collect())
}

fn kind_str(kind: UpdateKind) -> &'static str {
    match kind {
        UpdateKind::Single => "single",
        UpdateKind::Dual => "dual",
    }
}

fn topology_json(t: &Topology) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(DATASET_SCHEMA.into())),
        ("name".into(), Json::Str(t.name.clone())),
        (
            "nodes".into(),
            Json::Arr(
                t.node_ids()
                    .map(|id| {
                        let n = t.node(id);
                        let mut m = vec![("name".into(), Json::Str(n.name.clone()))];
                        if let Some((lat, lon)) = n.position {
                            m.push(("position".into(), Json::Arr(vec![num(lat), num(lon)])));
                        }
                        Json::Obj(m)
                    })
                    .collect(),
            ),
        ),
        (
            "links".into(),
            Json::Arr(
                t.links()
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("a".into(), node(l.a)),
                            ("b".into(), node(l.b)),
                            // Integer nanoseconds for an exact round trip.
                            ("latency_ns".into(), num(l.latency.as_nanos() as f64)),
                            ("capacity".into(), num(l.capacity)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn context_json(installed: &BTreeMap<FlowId, Version>) -> Json {
    Json::Obj(vec![(
        "installed".into(),
        Json::Arr(
            installed
                .iter()
                .map(|(&f, &v)| {
                    Json::Obj(vec![
                        ("flow".into(), num(f64::from(f.0))),
                        ("version".into(), num(f64::from(v.0))),
                    ])
                })
                .collect(),
        ),
    )])
}

fn plan_json(plan: &PreparedUpdate) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(DATASET_SCHEMA.into())),
        ("flow".into(), num(f64::from(plan.flow.0))),
        ("version".into(), num(f64::from(plan.version.0))),
        ("kind".into(), Json::Str(kind_str(plan.kind).into())),
        (
            "update".into(),
            Json::Obj(vec![
                (
                    "old_path".into(),
                    plan.update.old_path.as_ref().map_or(Json::Null, path_json),
                ),
                ("new_path".into(), path_json(&plan.update.new_path)),
                ("size".into(), num(plan.update.size)),
            ]),
        ),
        (
            "segmentation".into(),
            Json::Obj(vec![
                (
                    "gateways".into(),
                    Json::Arr(
                        plan.segmentation
                            .gateways
                            .iter()
                            .map(|&g| node(g))
                            .collect(),
                    ),
                ),
                (
                    "segments".into(),
                    Json::Arr(
                        plan.segmentation
                            .segments
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("ingress_gateway".into(), node(s.ingress_gateway)),
                                    ("egress_gateway".into(), node(s.egress_gateway)),
                                    (
                                        "interior".into(),
                                        Json::Arr(s.interior.iter().map(|&n| node(n)).collect()),
                                    ),
                                    (
                                        "ingress_old_distance".into(),
                                        num(f64::from(s.ingress_old_distance)),
                                    ),
                                    (
                                        "egress_old_distance".into(),
                                        num(f64::from(s.egress_old_distance)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "uims".into(),
            Json::Arr(
                plan.uims
                    .iter()
                    .map(|&(n, uim)| {
                        Json::Obj(vec![
                            ("node".into(), node(n)),
                            ("version".into(), num(f64::from(uim.version.0))),
                            ("new_distance".into(), num(f64::from(uim.new_distance))),
                            ("flow_size".into(), num(uim.flow_size)),
                            ("next_hop".into(), opt_node(uim.next_hop)),
                            ("upstream".into(), opt_node(uim.upstream)),
                            ("kind".into(), Json::Str(kind_str(uim.kind).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---- parsing -------------------------------------------------------------

fn field<'j>(doc: &'j Json, key: &str) -> Result<&'j Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn parse_u32(doc: &Json, key: &str) -> Result<u32, String> {
    let n = field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
        return Err(format!("{key:?} = {n} is not a u32"));
    }
    Ok(n as u32)
}

fn parse_f64(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn parse_node(v: &Json) -> Result<NodeId, String> {
    let n = v.as_f64().ok_or("node id is not a number")?;
    if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
        return Err(format!("node id {n} is not a u32"));
    }
    Ok(NodeId(n as u32))
}

fn parse_opt_node(v: &Json) -> Result<Option<NodeId>, String> {
    match v {
        Json::Null => Ok(None),
        other => parse_node(other).map(Some),
    }
}

fn parse_path(v: &Json) -> Result<Path, String> {
    let nodes = v
        .as_arr()
        .ok_or("path is not an array")?
        .iter()
        .map(parse_node)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Path::new(nodes))
}

fn parse_kind(v: &Json) -> Result<UpdateKind, String> {
    match v.as_str() {
        Some("single") => Ok(UpdateKind::Single),
        Some("dual") => Ok(UpdateKind::Dual),
        other => Err(format!("unknown update kind {other:?}")),
    }
}

fn check_schema(doc: &Json, what: &str) -> Result<(), String> {
    match field(doc, "schema")?.as_str() {
        Some(DATASET_SCHEMA) => Ok(()),
        other => Err(format!(
            "{what}: unsupported schema {other:?} (expected {DATASET_SCHEMA:?})"
        )),
    }
}

fn parse_topology(doc: &Json) -> Result<Topology, String> {
    check_schema(doc, "topology.json")?;
    let name = field(doc, "name")?.as_str().ok_or("name is not a string")?;
    let mut tb = TopologyBuilder::new(name);
    for n in field(doc, "nodes")?
        .as_arr()
        .ok_or("nodes is not an array")?
    {
        let node_name = field(n, "name")?
            .as_str()
            .ok_or("node name is not a string")?;
        match n.get("position") {
            Some(Json::Arr(coords)) if coords.len() == 2 => {
                let lat = coords[0].as_f64().ok_or("latitude is not a number")?;
                let lon = coords[1].as_f64().ok_or("longitude is not a number")?;
                tb.add_site(node_name, lat, lon);
            }
            Some(other) => return Err(format!("bad position {other:?}")),
            None => {
                tb.add_node(node_name);
            }
        }
    }
    for l in field(doc, "links")?
        .as_arr()
        .ok_or("links is not an array")?
    {
        let a = parse_node(field(l, "a")?)?;
        let b = parse_node(field(l, "b")?)?;
        let latency_ns = field(l, "latency_ns")?
            .as_f64()
            .ok_or("latency_ns is not a number")?;
        if latency_ns < 0.0 || latency_ns.fract() != 0.0 {
            return Err(format!(
                "latency_ns = {latency_ns} is not a nanosecond count"
            ));
        }
        let capacity = parse_f64(l, "capacity")?;
        tb.add_link(a, b, SimDuration::from_nanos(latency_ns as u64), capacity);
    }
    Ok(tb.build())
}

fn parse_context(doc: &Json) -> Result<BTreeMap<FlowId, Version>, String> {
    let mut installed = BTreeMap::new();
    for entry in field(doc, "installed")?
        .as_arr()
        .ok_or("installed is not an array")?
    {
        installed.insert(
            FlowId(parse_u32(entry, "flow")?),
            Version(parse_u32(entry, "version")?),
        );
    }
    Ok(installed)
}

fn parse_plan(doc: &Json) -> Result<PreparedUpdate, String> {
    check_schema(doc, "plan")?;
    let flow = FlowId(parse_u32(doc, "flow")?);
    let version = Version(parse_u32(doc, "version")?);
    let kind = parse_kind(field(doc, "kind")?)?;

    let u = field(doc, "update")?;
    let old_path = match field(u, "old_path")? {
        Json::Null => None,
        other => Some(parse_path(other)?),
    };
    let update = FlowUpdate {
        flow,
        old_path,
        new_path: parse_path(field(u, "new_path")?)?,
        size: parse_f64(u, "size")?,
    };

    let seg = field(doc, "segmentation")?;
    let gateways = field(seg, "gateways")?
        .as_arr()
        .ok_or("gateways is not an array")?
        .iter()
        .map(parse_node)
        .collect::<Result<Vec<_>, _>>()?;
    let segments = field(seg, "segments")?
        .as_arr()
        .ok_or("segments is not an array")?
        .iter()
        .map(|s| {
            Ok(Segment {
                ingress_gateway: parse_node(field(s, "ingress_gateway")?)?,
                egress_gateway: parse_node(field(s, "egress_gateway")?)?,
                interior: field(s, "interior")?
                    .as_arr()
                    .ok_or("interior is not an array")?
                    .iter()
                    .map(parse_node)
                    .collect::<Result<Vec<_>, String>>()?,
                ingress_old_distance: parse_u32(s, "ingress_old_distance")?,
                egress_old_distance: parse_u32(s, "egress_old_distance")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let uims = field(doc, "uims")?
        .as_arr()
        .ok_or("uims is not an array")?
        .iter()
        .map(|entry| {
            Ok((
                parse_node(field(entry, "node")?)?,
                Uim {
                    flow,
                    version: Version(parse_u32(entry, "version")?),
                    new_distance: parse_u32(entry, "new_distance")?,
                    flow_size: parse_f64(entry, "flow_size")?,
                    next_hop: parse_opt_node(field(entry, "next_hop")?)?,
                    upstream: parse_opt_node(field(entry, "upstream")?)?,
                    kind: parse_kind(field(entry, "kind")?)?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;

    Ok(PreparedUpdate {
        flow,
        update,
        version,
        kind,
        segmentation: Segmentation { gateways, segments },
        uims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::{prepare_update, Strategy};

    fn sample_topo() -> Topology {
        let mut tb = TopologyBuilder::new("diamond");
        let ids: Vec<NodeId> = (0..4).map(|i| tb.add_node(format!("v{i}"))).collect();
        for (x, y) in [(0usize, 1), (1, 3), (0, 2), (2, 3)] {
            tb.add_link(ids[x], ids[y], SimDuration::from_nanos(1_234_567), 2.5);
        }
        tb.build()
    }

    fn sample_plans() -> Vec<PreparedUpdate> {
        let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
        let a = FlowUpdate::new(FlowId(1), Some(p(&[0, 1, 3])), p(&[0, 2, 3]), 1.5);
        let b = FlowUpdate::new(FlowId(2), None, p(&[0, 1, 3]), 0.25);
        vec![
            prepare_update(&a, Version(2), Strategy::Auto),
            prepare_update(&b, Version(1), Strategy::ForceSingle),
        ]
    }

    #[test]
    fn dataset_round_trips_exactly() {
        let dir = std::env::temp_dir().join(format!("p4u-ds-{}", std::process::id()));
        let topo = sample_topo();
        let plans = sample_plans();
        let mut installed = BTreeMap::new();
        installed.insert(FlowId(1), Version(1));
        export_dataset(&dir, Some(&topo), &plans, &installed).unwrap();
        let ds = load_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(ds.plans, plans);
        assert_eq!(ds.installed, installed);
        let back = ds.topology.expect("topology present");
        assert_eq!(back.name, topo.name);
        assert_eq!(back.node_count(), topo.node_count());
        assert_eq!(back.link_count(), topo.link_count());
        for (l, r) in back.links().iter().zip(topo.links()) {
            assert_eq!((l.a, l.b, l.latency), (r.a, r.b, r.latency));
            assert_eq!(l.capacity.to_bits(), r.capacity.to_bits());
        }
    }

    #[test]
    fn lint_of_loaded_dataset_matches_in_memory_analysis() {
        let dir = std::env::temp_dir().join(format!("p4u-ds-lint-{}", std::process::id()));
        let topo = sample_topo();
        let plans = sample_plans();
        export_dataset(&dir, Some(&topo), &plans, &BTreeMap::new()).unwrap();
        let ds = load_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let ctx = AnalysisContext::with_topo(&topo);
        let reference = crate::analyze_batch_with(&plans, &ctx);
        assert_eq!(ds.lint().diagnostics(), &reference[..]);
    }

    #[test]
    fn missing_plans_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("p4u-ds-missing-{}", std::process::id()));
        assert!(load_dataset(&dir).is_err());
    }

    #[test]
    fn export_replaces_stale_plan_files() {
        let dir = std::env::temp_dir().join(format!("p4u-ds-stale-{}", std::process::id()));
        let plans = sample_plans();
        export_dataset(&dir, None, &plans, &BTreeMap::new()).unwrap();
        export_dataset(&dir, None, &plans[..1], &BTreeMap::new()).unwrap();
        let ds = load_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(ds.plans.len(), 1);
        assert!(ds.topology.is_none());
        assert!(ds.installed.is_empty());
    }
}
