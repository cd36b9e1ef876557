//! Fault plans: the serializable description of a chaos run.

use std::fmt;

/// A half-open time window `[start_ms, end_ms)` measured from cluster
/// start. `end_ms == 0` means "open-ended" (until the run finishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Window {
    /// First millisecond (inclusive) the fault is active.
    pub start_ms: u64,
    /// First millisecond the fault is no longer active; 0 = never ends.
    pub end_ms: u64,
}

impl Window {
    /// A window covering the whole run.
    pub const ALWAYS: Window = Window { start_ms: 0, end_ms: 0 };

    /// A window active from `start_ms` until `end_ms`.
    pub fn between(start_ms: u64, end_ms: u64) -> Window {
        Window { start_ms, end_ms }
    }

    /// Whether `now_ms` falls inside the window.
    pub fn contains(&self, now_ms: u64) -> bool {
        now_ms >= self.start_ms && (self.end_ms == 0 || now_ms < self.end_ms)
    }
}

/// One injectable fault. Node indices refer to cluster slots, matching
/// `NodeId` in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop loadd packets from `from` to `to` with probability
    /// `rate_ppm` / 1_000_000, decided deterministically per packet.
    LoaddLoss {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Drop probability in parts per million (1_000_000 = drop all).
        rate_ppm: u32,
        /// When the fault is active.
        window: Window,
    },
    /// Delay loadd packets from `from` to `to` by `delay_ms`.
    LoaddDelay {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Added latency per packet, in milliseconds.
        delay_ms: u64,
        /// When the fault is active.
        window: Window,
    },
    /// Drop *all* loadd traffic between `a` and `b`, both directions:
    /// each keeps serving clients but the pair stop hearing each other.
    Partition {
        /// One side of the cut.
        a: u32,
        /// The other side.
        b: u32,
        /// When the fault is active.
        window: Window,
    },
    /// Hard-kill `node` at `at_ms`: the process equivalent of yanking
    /// power — no leaving packet, no drain.
    Crash {
        /// Victim node.
        node: u32,
        /// Milliseconds from cluster start.
        at_ms: u64,
    },
    /// Restart a previously crashed `node` at `at_ms` on its old address.
    Revive {
        /// Node to bring back.
        node: u32,
        /// Milliseconds from cluster start.
        at_ms: u64,
    },
    /// Stop `node` accepting connections (the listener stays bound, so
    /// clients see hangs-until-backlog, not refusals) for the window.
    Pause {
        /// Affected node.
        node: u32,
        /// When the fault is active.
        window: Window,
    },
    /// Add `extra_ms` of artificial latency to every file read on `node`.
    SlowDisk {
        /// Affected node.
        node: u32,
        /// Added latency per read, in milliseconds.
        extra_ms: u64,
        /// When the fault is active.
        window: Window,
    },
    /// Simulate fd exhaustion on `node`: accepted connections are
    /// immediately failed as if `accept(2)` returned `EMFILE`.
    FdPressure {
        /// Affected node.
        node: u32,
        /// When the fault is active.
        window: Window,
    },
    /// Synthetic overload on `node`: every worker-queue sojourn sample
    /// the node observes is inflated by `sojourn_us` microseconds, so
    /// the adaptive admission controller sees a standing queue without
    /// the test having to generate real saturating load.
    Overload {
        /// Affected node.
        node: u32,
        /// Microseconds added to each observed sojourn sample.
        sojourn_us: u64,
        /// When the fault is active.
        window: Window,
    },
    /// Brownout on `node`: every request's fulfillment is slowed by
    /// `delay_ms` — the whole node runs degraded (CPU starvation,
    /// thermal throttle), unlike [`Fault::SlowDisk`] which only touches
    /// file reads.
    Brownout {
        /// Affected node.
        node: u32,
        /// Added latency per request, in milliseconds.
        delay_ms: u64,
        /// When the fault is active.
        window: Window,
    },
}

/// A complete chaos run description: a seed for every probabilistic
/// decision plus the fault list. Two runs of the same plan produce the
/// same verdict stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for deterministic per-packet decisions.
    pub seed: u64,
    /// Faults to inject.
    pub faults: Vec<Fault>,
}

/// Error from [`FaultPlan::from_text`]: the offending line and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for PlanParseError {}

fn window_fields(w: &Window) -> String {
    format!("start_ms={} end_ms={}", w.start_ms, w.end_ms)
}

impl FaultPlan {
    /// A plan with a seed and no faults (useful as a builder start).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: Vec::new() }
    }

    /// Append a fault, builder-style.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Serialize to the line-based text format (see [`FaultPlan::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# sweb-chaos fault plan v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for f in &self.faults {
            let line = match f {
                Fault::LoaddLoss { from, to, rate_ppm, window } => format!(
                    "loadd-loss from={from} to={to} rate_ppm={rate_ppm} {}",
                    window_fields(window)
                ),
                Fault::LoaddDelay { from, to, delay_ms, window } => format!(
                    "loadd-delay from={from} to={to} delay_ms={delay_ms} {}",
                    window_fields(window)
                ),
                Fault::Partition { a, b, window } => {
                    format!("partition a={a} b={b} {}", window_fields(window))
                }
                Fault::Crash { node, at_ms } => format!("crash node={node} at_ms={at_ms}"),
                Fault::Revive { node, at_ms } => format!("revive node={node} at_ms={at_ms}"),
                Fault::Pause { node, window } => {
                    format!("pause node={node} {}", window_fields(window))
                }
                Fault::SlowDisk { node, extra_ms, window } => format!(
                    "slow-disk node={node} extra_ms={extra_ms} {}",
                    window_fields(window)
                ),
                Fault::FdPressure { node, window } => {
                    format!("fd-pressure node={node} {}", window_fields(window))
                }
                Fault::Overload { node, sojourn_us, window } => format!(
                    "overload node={node} sojourn_us={sojourn_us} {}",
                    window_fields(window)
                ),
                Fault::Brownout { node, delay_ms, window } => format!(
                    "brownout node={node} delay_ms={delay_ms} {}",
                    window_fields(window)
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parse the text format: one directive per line, `key=value` fields,
    /// `#` comments and blank lines ignored. The format is intentionally
    /// diff- and shell-friendly — CI uploads it on failure and a human
    /// replays it with `--fault-plan FILE`.
    pub fn from_text(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: String| PlanParseError { line: idx + 1, reason };
            let mut parts = line.split_whitespace();
            let verb = parts.next().expect("non-empty line has a first token");
            let fields: Vec<(&str, &str)> =
                parts.map(|p| p.split_once('=').unwrap_or((p, ""))).collect();
            let get = |key: &str| -> Option<&str> {
                fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
            };
            let num = |key: &str| -> Result<u64, PlanParseError> {
                let v = get(key)
                    .ok_or_else(|| err(format!("missing field `{key}`")))?;
                v.parse()
                    .map_err(|_| err(format!("field `{key}`: bad number `{v}`")))
            };
            // Node indices and rates are `u32`: a wider number is refused,
            // not wrapped onto another node.
            let num32 = |key: &str| -> Result<u32, PlanParseError> {
                let v = num(key)?;
                u32::try_from(v).map_err(|_| err(format!("field `{key}`: {v} exceeds u32")))
            };
            let window = || -> Result<Window, PlanParseError> {
                Ok(Window { start_ms: num("start_ms")?, end_ms: num("end_ms")? })
            };
            match verb {
                "seed" => {
                    let v = line.split_whitespace().nth(1).unwrap_or("");
                    plan.seed = v
                        .parse()
                        .map_err(|_| err(format!("bad seed `{v}`")))?;
                }
                "loadd-loss" => plan.faults.push(Fault::LoaddLoss {
                    from: num32("from")?,
                    to: num32("to")?,
                    rate_ppm: num32("rate_ppm")?,
                    window: window()?,
                }),
                "loadd-delay" => plan.faults.push(Fault::LoaddDelay {
                    from: num32("from")?,
                    to: num32("to")?,
                    delay_ms: num("delay_ms")?,
                    window: window()?,
                }),
                "partition" => plan.faults.push(Fault::Partition {
                    a: num32("a")?,
                    b: num32("b")?,
                    window: window()?,
                }),
                "crash" => plan
                    .faults
                    .push(Fault::Crash { node: num32("node")?, at_ms: num("at_ms")? }),
                "revive" => plan
                    .faults
                    .push(Fault::Revive { node: num32("node")?, at_ms: num("at_ms")? }),
                "pause" => plan
                    .faults
                    .push(Fault::Pause { node: num32("node")?, window: window()? }),
                "slow-disk" => plan.faults.push(Fault::SlowDisk {
                    node: num32("node")?,
                    extra_ms: num("extra_ms")?,
                    window: window()?,
                }),
                "fd-pressure" => plan
                    .faults
                    .push(Fault::FdPressure { node: num32("node")?, window: window()? }),
                "overload" => plan.faults.push(Fault::Overload {
                    node: num32("node")?,
                    sojourn_us: num("sojourn_us")?,
                    window: window()?,
                }),
                "brownout" => plan.faults.push(Fault::Brownout {
                    node: num32("node")?,
                    delay_ms: num("delay_ms")?,
                    window: window()?,
                }),
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::seeded(42)
            .with(Fault::LoaddLoss {
                from: 0,
                to: 1,
                rate_ppm: 500_000,
                window: Window::between(100, 900),
            })
            .with(Fault::LoaddDelay { from: 2, to: 0, delay_ms: 75, window: Window::ALWAYS })
            .with(Fault::Partition { a: 1, b: 3, window: Window::between(0, 2_000) })
            .with(Fault::Crash { node: 2, at_ms: 500 })
            .with(Fault::Revive { node: 2, at_ms: 1_500 })
            .with(Fault::Pause { node: 1, window: Window::between(300, 600) })
            .with(Fault::SlowDisk { node: 0, extra_ms: 40, window: Window::ALWAYS })
            .with(Fault::FdPressure { node: 3, window: Window::between(200, 400) })
            .with(Fault::Overload {
                node: 1,
                sojourn_us: 30_000,
                window: Window::between(100, 700),
            })
            .with(Fault::Brownout { node: 0, delay_ms: 15, window: Window::between(0, 800) })
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let plan = sample_plan();
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).expect("own output must parse");
        assert_eq!(back, plan);
        // And the re-serialization is byte-stable (CI artifact diffing).
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parser_skips_comments_and_blank_lines() {
        let text = "# header\n\nseed 7\n  # indented comment\ncrash node=1 at_ms=10\n";
        let plan = FaultPlan::from_text(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults, vec![Fault::Crash { node: 1, at_ms: 10 }]);
    }

    #[test]
    fn parser_reports_line_and_reason() {
        let e = FaultPlan::from_text("seed 1\nwobble node=1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("wobble"), "{e}");
        let e = FaultPlan::from_text("crash node=1\n").unwrap_err();
        assert!(e.reason.contains("at_ms"), "{e}");
        let e = FaultPlan::from_text("seed banana\n").unwrap_err();
        assert!(e.reason.contains("banana"), "{e}");
    }

    #[test]
    fn the_peer_channel_faults_are_gone_not_ignored() {
        // No node has a peer channel to break or slow: a plan that asks
        // for it is refused, not run as if it asked for nothing.
        for line in [
            "peer-loss from=0 to=1 rate_ppm=1000000 start_ms=0 end_ms=0",
            "peer-delay from=2 to=1 delay_ms=40 start_ms=0 end_ms=100",
        ] {
            let e = FaultPlan::from_text(&format!("seed 1\n{line}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.reason.contains("unknown directive"), "{e}");
        }
    }

    #[test]
    fn window_containment() {
        let w = Window::between(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert!(Window::ALWAYS.contains(0));
        assert!(Window::ALWAYS.contains(u64::MAX));
        let open = Window::between(50, 0);
        assert!(!open.contains(49));
        assert!(open.contains(u64::MAX));
    }
}
