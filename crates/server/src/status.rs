//! The introspection API: a typed, versioned [`StatusReport`] served as
//! text or JSON from `/sweb-status`, and a Prometheus-style exposition at
//! `/metrics`. Both administrative endpoints are always answered by the
//! node they reached (never redirected).
//!
//! The node's [`sweb_telemetry::Registry`] is the one description of its
//! numbers: `/metrics` renders it, and the report's `metrics` are its
//! counters and gauges keyed by series. The report types by hand only
//! what is not a registry number — the node's identity and the load,
//! shard and handler tables.
//! The text page and the JSON document are two views of that one value,
//! and `StatusReport::from_json` gives API consumers a schema-checked
//! round trip.

use sweb_cluster::NodeId;
use sweb_http::Response;
use sweb_telemetry::{line_is_well_formed, Json};

use crate::node::NodeShared;

/// Path of the status endpoint (`?format=json` selects the JSON view).
pub const STATUS_PATH: &str = "/sweb-status";

/// Path of the Prometheus-style metric exposition.
pub const METRICS_PATH: &str = "/metrics";

/// Version stamped into every JSON report; consumers must check it.
///
/// v2 added per-peer `health` and the node's `draining` flag and
/// injected-fault counters (the failure-domain view).
/// v3 added the `shards` array: one row per reactor shard (liveness plus
/// the shard's slice of the hot counters).
/// v4 added the peer-transfer counters and the peer-channel fault
/// counters.
/// v5 added `io_backend` to each shard row.
/// v6 added the `handlers` array (one row per dynamic handler class) and
/// the `dynamic_cache` block.
/// v7 added the `overload` block (admission, breakers, retry budgets) and
/// two fault counters for the injected overload / brownout faults.
/// v8 added the `io` block: the poller's kernel-crossing counters.
/// v9 removed the top-level `engine` string (the reactor is the only
/// connection engine).
/// v10 removed what only the io_uring backend filled: the shard rows'
/// `io_backend` and the `io` block.
/// v11 moved every registry number into one `metrics` object keyed by
/// series (`name{labels}`, as `/metrics` prints it): the `counters`,
/// `cache`, `dynamic_cache` and `faults` blocks, the numeric `overload`
/// members and the handler rows' `invocations` and `cache_hits` went. A
/// new series is one registration and needs no bump.
/// v12 removed the `overload.breakers` array: no node keeps per-peer
/// circuit breakers.
/// v13 removed the `overload` block: overload control has no switch, and
/// its numbers are `metrics` series.
pub const STATUS_SCHEMA_VERSION: u64 = 13;

/// One node's full introspection snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// JSON schema version ([`STATUS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Reporting node id.
    pub node: u32,
    /// Scheduling policy the node runs.
    pub policy: String,
    /// Whether this node is draining (leaving the scheduling pool).
    pub draining: bool,
    /// The node's view of every peer's load.
    pub load: Vec<LoadRow>,
    /// Per-shard breakdown of the hot counters.
    pub shards: Vec<ShardRow>,
    /// Per-class dynamic handler accounting, sorted by class name.
    pub handlers: Vec<HandlerRow>,
    /// Every counter and gauge of the node's registry, `(series, value)`
    /// in registration order: the scalar series of `/metrics`.
    pub metrics: Vec<(String, i64)>,
}

/// One reactor shard's slice of the node's hot counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Shard index.
    pub shard: u32,
    /// Whether this shard's event loop is currently running.
    pub live: bool,
    /// Connections this shard accepted.
    pub accepted: u64,
    /// Replies this shard counted as served.
    pub served: u64,
    /// 503 refusals this shard counted.
    pub shed: u64,
    /// Connections open on this shard right now. A connection opens and
    /// closes on its own shard's loop, so the cell never goes negative.
    pub active: i64,
}

/// One dynamic handler class's measured cost and what the oracle currently
/// believes it costs. Its invocation and cache-hit counts are registry
/// series (`sweb_dynamic_invocations_total{handler="<class>"}`).
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerRow {
    /// Handler class name (`"echo"`, `"burn"`, `"search"`, ...).
    pub class: String,
    /// Median measured handler wall time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile measured handler wall time, microseconds.
    pub p99_us: u64,
    /// The oracle's current CPU-demand estimate for this class, in ops —
    /// the tuned EWMA once measurements have fed back, the static prior
    /// until then. This is the `t_cpu` input the broker's cost model
    /// uses for the class.
    pub oracle_ops: f64,
}

/// One row of the load table as this node sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRow {
    /// Peer node id.
    pub node: u32,
    /// CPU channel load.
    pub cpu: f64,
    /// Disk channel load.
    pub disk: f64,
    /// Network channel load.
    pub net: f64,
    /// Whether the peer still counts toward cluster capacity (not Dead).
    pub alive: bool,
    /// Tri-state health: `"alive"`, `"suspect"` or `"dead"`.
    pub health: String,
    /// Milliseconds since the last report from this peer.
    pub age_ms: f64,
}

impl StatusReport {
    /// Snapshot `shared` into a report.
    pub fn gather(shared: &NodeShared) -> StatusReport {
        let now = shared.now();
        let load = {
            let loads = shared.loads.read();
            (0..loads.len())
                .map(|i| {
                    let id = NodeId(i as u32);
                    let l = loads.load(id);
                    LoadRow {
                        node: id.0,
                        cpu: l.cpu,
                        disk: l.disk,
                        net: l.net,
                        alive: loads.is_alive(id),
                        health: loads.health(id).name().to_string(),
                        age_ms: now.saturating_sub(loads.updated_at(id)).as_millis_f64(),
                    }
                })
                .collect()
        };
        let c = &shared.reactor.counters;
        StatusReport {
            schema_version: STATUS_SCHEMA_VERSION,
            node: shared.id.0,
            policy: shared.broker.policy().to_string(),
            draining: shared.draining.load(std::sync::atomic::Ordering::Relaxed),
            load,
            shards: (0..shared.shards.max(1))
                .map(|i| ShardRow {
                    shard: i as u32,
                    live: c.live.cell_value(i) > 0,
                    accepted: c.accepted.cell_value(i),
                    served: c.served.cell_value(i),
                    shed: c.shed.cell_value(i),
                    active: c.open.cell_value(i),
                })
                .collect(),
            handlers: shared
                .dynamic
                .class_rows()
                .into_iter()
                .map(|(class, cs)| HandlerRow {
                    class: class.to_string(),
                    p50_us: cs.tcpu_us.quantile(0.5),
                    p99_us: cs.tcpu_us.quantile(0.99),
                    oracle_ops: shared.oracle.characterize_dynamic(
                        class,
                        &format!("/cgi-bin/{class}"),
                        4096,
                    ),
                })
                .collect(),
            metrics: shared.stats.registry.scalars(),
        }
    }

    /// The value of one series (`name{labels}`, as `/metrics` prints it).
    pub fn metric(&self, series: &str) -> Option<i64> {
        self.metrics.iter().find(|(k, _)| k == series).map(|&(_, v)| v)
    }

    /// The human-readable status page.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "SWEB node n{} — policy {}{}\n\nload table (this node's view):\n",
            self.node,
            self.policy,
            if self.draining { " — DRAINING" } else { "" },
        ));
        out.push_str("node   cpu     disk    net     health   age(ms)\n");
        for row in &self.load {
            out.push_str(&format!(
                "{:<6} {:<7.2} {:<7.2} {:<7.2} {:<8} {:.0}\n",
                format!("n{}", row.node),
                row.cpu,
                row.disk,
                row.net,
                row.health,
                row.age_ms,
            ));
        }
        out.push_str("\nshards:\nshard  live   accepted  served    shed      active\n");
        for row in &self.shards {
            out.push_str(&format!(
                "{:<6} {:<6} {:<9} {:<9} {:<9} {}\n",
                format!("s{}", row.shard),
                if row.live { "yes" } else { "no" },
                row.accepted,
                row.served,
                row.shed,
                row.active,
            ));
        }
        out.push_str("\nhandlers:\nclass       p50(us)   p99(us)   oracle(ops)\n");
        for row in &self.handlers {
            out.push_str(&format!(
                "{:<11} {:<9} {:<9} {:.0}\n",
                row.class, row.p50_us, row.p99_us, row.oracle_ops,
            ));
        }
        out.push_str("\nmetrics:\n");
        for (series, value) in &self.metrics {
            out.push_str(&format!("  {series} {value}\n"));
        }
        out
    }

    /// The JSON view (`/sweb-status?format=json`).
    pub fn to_json(&self) -> Json {
        let obj = |members: Vec<(&str, Json)>| {
            Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("node", Json::Num(self.node as f64)),
            ("policy", Json::Str(self.policy.clone())),
            ("draining", Json::Bool(self.draining)),
            (
                "load",
                Json::Arr(
                    self.load
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("node", Json::Num(row.node as f64)),
                                ("cpu", Json::Num(row.cpu)),
                                ("disk", Json::Num(row.disk)),
                                ("net", Json::Num(row.net)),
                                ("alive", Json::Bool(row.alive)),
                                ("health", Json::Str(row.health.clone())),
                                ("age_ms", Json::Num(row.age_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("shard", Json::Num(row.shard as f64)),
                                ("live", Json::Bool(row.live)),
                                ("accepted", Json::Num(row.accepted as f64)),
                                ("served", Json::Num(row.served as f64)),
                                ("shed", Json::Num(row.shed as f64)),
                                ("active", Json::Num(row.active as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "handlers",
                Json::Arr(
                    self.handlers
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("class", Json::Str(row.class.clone())),
                                ("p50_us", Json::Num(row.p50_us as f64)),
                                ("p99_us", Json::Num(row.p99_us as f64)),
                                ("oracle_ops", Json::Num(row.oracle_ops)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect(),
                ),
            ),
        ])
    }

    /// Parse a JSON document back into a report, strictly: the schema
    /// version must be this one, every member must be present with its
    /// type, and every `metrics` member must be a well-formed series key
    /// with an integer value. This is the consumer-side contract test:
    /// anything a node serves must round-trip through here unchanged.
    pub fn from_json(v: &Json) -> Result<StatusReport, String> {
        let field = |obj: &Json, key: &str| -> Result<Json, String> {
            obj.get(key).cloned().ok_or_else(|| format!("missing field {key:?}"))
        };
        let num_u64 = |obj: &Json, key: &str| -> Result<u64, String> {
            field(obj, key)?.as_u64().ok_or_else(|| format!("field {key:?} is not a u64"))
        };
        let num_f64 = |obj: &Json, key: &str| -> Result<f64, String> {
            field(obj, key)?.as_f64().ok_or_else(|| format!("field {key:?} is not a number"))
        };
        let boolean = |obj: &Json, key: &str| -> Result<bool, String> {
            field(obj, key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a bool"))
        };
        let string = |obj: &Json, key: &str| -> Result<String, String> {
            field(obj, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {key:?} is not a string"))
        };
        let rows = |key: &str| -> Result<Vec<Json>, String> {
            field(v, key)?
                .as_arr()
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("{key} is not an array"))
        };
        let schema_version = num_u64(v, "schema_version")?;
        if schema_version != STATUS_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (want {STATUS_SCHEMA_VERSION})"
            ));
        }
        let load = rows("load")?
            .iter()
            .map(|row| {
                Ok(LoadRow {
                    node: num_u64(row, "node")? as u32,
                    cpu: num_f64(row, "cpu")?,
                    disk: num_f64(row, "disk")?,
                    net: num_f64(row, "net")?,
                    alive: boolean(row, "alive")?,
                    health: string(row, "health")?,
                    age_ms: num_f64(row, "age_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let shards = rows("shards")?
            .iter()
            .map(|row| {
                Ok(ShardRow {
                    shard: num_u64(row, "shard")? as u32,
                    live: boolean(row, "live")?,
                    accepted: num_u64(row, "accepted")?,
                    served: num_u64(row, "served")?,
                    shed: num_u64(row, "shed")?,
                    active: field(row, "active")?.as_i64().ok_or("active is not an i64")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let handlers = rows("handlers")?
            .iter()
            .map(|row| {
                Ok(HandlerRow {
                    class: string(row, "class")?,
                    p50_us: num_u64(row, "p50_us")?,
                    p99_us: num_u64(row, "p99_us")?,
                    oracle_ops: num_f64(row, "oracle_ops")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let Json::Obj(members) = field(v, "metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = members
            .into_iter()
            .map(|(series, value)| {
                if series.starts_with('#') || !line_is_well_formed(&format!("{series} 0")) {
                    return Err(format!("metrics key {series:?} is not a series"));
                }
                let value = value.as_i64().ok_or_else(|| format!("{series} is not an integer"))?;
                Ok((series, value))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(StatusReport {
            schema_version,
            node: num_u64(v, "node")? as u32,
            policy: string(v, "policy")?,
            draining: boolean(v, "draining")?,
            load,
            shards,
            handlers,
            metrics,
        })
    }
}

/// Render the status endpoint: the text page, or the JSON document when
/// the query selects `format=json`.
pub fn render(shared: &NodeShared, query: Option<&str>) -> Response {
    let report = StatusReport::gather(shared);
    let json = query.map(|q| q.split('&').any(|kv| kv == "format=json")).unwrap_or(false);
    if json {
        Response::ok(report.to_json().render(), "application/json")
    } else {
        Response::ok(report.to_text(), "text/plain")
    }
}

/// Render the `/metrics` exposition: the node's registry.
pub fn render_metrics(shared: &NodeShared) -> Response {
    Response::ok(shared.stats.registry.render_prometheus(), "text/plain; version=0.0.4")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> StatusReport {
        StatusReport {
            schema_version: STATUS_SCHEMA_VERSION,
            node: 2,
            policy: "sweb".to_string(),
            draining: true,
            load: vec![
                LoadRow {
                    node: 0,
                    cpu: 1.5,
                    disk: 0.25,
                    net: 0.0,
                    alive: true,
                    health: "alive".to_string(),
                    age_ms: 12.0,
                },
                LoadRow {
                    node: 1,
                    cpu: 0.0,
                    disk: 0.0,
                    net: 3.5,
                    alive: false,
                    health: "dead".to_string(),
                    age_ms: 2000.0,
                },
            ],
            shards: vec![
                ShardRow { shard: 0, live: true, accepted: 60, served: 55, shed: 2, active: 3 },
                ShardRow { shard: 1, live: false, accepted: 40, served: 35, shed: 0, active: 2 },
            ],
            handlers: vec![
                HandlerRow {
                    class: "burn".to_string(),
                    p50_us: 1800,
                    p99_us: 4200,
                    oracle_ops: 250000.0,
                },
                HandlerRow {
                    class: "echo".to_string(),
                    p50_us: 30,
                    p99_us: 90,
                    oracle_ops: 5000.0,
                },
            ],
            metrics: vec![
                ("sweb_requests_served_total".to_string(), 90),
                ("sweb_active_requests".to_string(), -1),
                ("sweb_admission_sheds_total{class=\"dynamic\"}".to_string(), 5),
                ("sweb_dynamic_invocations_total{handler=\"burn\"}".to_string(), 25),
                ("sweb_faults_injected_total{kind=\"packets_dropped\"}".to_string(), 17),
            ],
        }
    }

    /// Every copy of `v` with one object member removed, at any depth
    /// outside `metrics` (whose members are whatever the registry holds).
    fn without_one_member(v: &Json) -> Vec<Json> {
        let mut out = Vec::new();
        match v {
            Json::Obj(members) => {
                for i in 0..members.len() {
                    let mut fewer = members.clone();
                    fewer.remove(i);
                    out.push(Json::Obj(fewer));
                    if members[i].0 != "metrics" {
                        for inner in without_one_member(&members[i].1) {
                            let mut changed = members.clone();
                            changed[i].1 = inner;
                            out.push(Json::Obj(changed));
                        }
                    }
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    for inner in without_one_member(item) {
                        let mut changed = items.clone();
                        changed[i] = inner;
                        out.push(Json::Arr(changed));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// `v` with the `metrics` member's members replaced by `metrics`.
    fn with_metrics(v: &Json, metrics: Vec<(String, Json)>) -> Json {
        let Json::Obj(members) = v else { unreachable!() };
        let mut members = members.clone();
        members.iter_mut().find(|(k, _)| k == "metrics").unwrap().1 = Json::Obj(metrics);
        Json::Obj(members)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let doc = report.to_json();
        let parsed = Json::parse(&doc.render()).expect("our own JSON must parse");
        assert_eq!(StatusReport::from_json(&parsed).expect("schema round trip"), report);
        let Json::Obj(members) = doc else { unreachable!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "node",
                "policy",
                "draining",
                "load",
                "shards",
                "handlers",
                "metrics"
            ]
        );
    }

    #[test]
    fn from_json_rejects_anything_but_a_whole_current_document() {
        let doc = sample_report().to_json();
        let broken = without_one_member(&doc);
        // 8 top-level members, 7 per load row, 6 per shard row and 4 per
        // handler row.
        assert_eq!(broken.len(), 8 + 2 * 7 + 2 * 6 + 2 * 4);
        for v in &broken {
            assert!(StatusReport::from_json(v).is_err(), "accepted {}", v.render());
        }
        let metrics = |key: &str, value: Json| with_metrics(&doc, vec![(key.to_string(), value)]);
        for v in [
            metrics("sweb_requests_served_total", Json::Num(1.5)),
            metrics("sweb_requests_served_total", Json::Str("1".into())),
            metrics("Not A Series", Json::Num(1.0)),
            metrics("# HELP sweb_x", Json::Num(1.0)),
        ] {
            assert!(StatusReport::from_json(&v).is_err(), "accepted {}", v.render());
        }
        assert!(StatusReport::from_json(&metrics("sweb_x{k=\"v\"}", Json::Num(-2.0))).is_ok());
        // The previous version, and a future one.
        for version in [12.0, 99.0] {
            let Json::Obj(mut members) = doc.clone() else { unreachable!() };
            members[0].1 = Json::Num(version);
            let err = StatusReport::from_json(&Json::Obj(members)).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn text_view_carries_the_same_numbers() {
        let report = sample_report();
        let text = report.to_text();
        assert!(text.contains("SWEB node n2 — policy sweb — DRAINING"), "{text}");
        // Two load rows, one per peer, with tri-state health.
        assert!(text.contains("n0") && text.contains("n1"), "{text}");
        assert!(text.contains("alive") && text.contains("dead"), "{text}");
        // The per-shard breakdown: one row per shard, liveness included.
        assert!(text.contains("s0     yes    60        55        2         3"), "{text}");
        assert!(text.contains("s1     no     40        35        0         2"), "{text}");
        assert!(text.contains("burn        1800      4200      250000"), "{text}");
        assert!(text.contains("echo        30        90        5000"), "{text}");
        assert!(!text.contains("overload"), "{text}");
        for (series, value) in &report.metrics {
            assert!(text.contains(&format!("\n  {series} {value}\n")), "{series}: {text}");
        }
        assert_eq!(report.metric("sweb_active_requests"), Some(-1));
        assert_eq!(report.metric("sweb_nothing_total"), None);
    }
}
