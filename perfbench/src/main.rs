//! `perfbench` — the repository benchmark: `afta-serve` requests in
//! process, paced and flooded over loopback TCP, and the Fig. 7
//! campaign, with a separate traced run for per-layer figures.
//!
//! ```text
//! perfbench --workload serve_inproc|serve_paced|serve_flood|campaign_fig7 \
//!           --seed N --seconds N --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (spans go to `.perfbench-out/`).  A failed output
//! check prints `"correct": false` and exits 1; a malformed command line,
//! or a process that may use more than one CPU, exits 2 without a
//! result.
//!
//! Run it confined to one CPU (`taskset -c 0`, as the command in
//! `BENCHMARK.json` does), so the generator threads and the server's
//! reactor and worker always share one core.  Left to the scheduler on
//! two vCPUs, the reactor and worker landed on the same or on different
//! cores by chance, and `serve_flood` ran at ~90k or ~230k req/s
//! depending on which: a spread no bound can absorb.  The price is that
//! no workload can show a parallel speed-up.

mod alloc;
mod args;
mod calib;
mod campaign;
mod check;
mod replay;
mod serve;
mod stats;
mod trace;
mod traffic;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use args::{Args, Workload};
use check::Failures;
use stats::{median_of_means, percentile, Figures, SETUP_GROUP};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Directory, relative to the working directory, for span files.
const OUT_DIR: &str = ".perfbench-out";

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists
/// them: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("req_per_s", "req/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
    ("steps_per_s", "steps/s"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("heap_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
/// A layer that is not on a workload's path reads 0 there.
const PER_LAYER: [(&str, &str); 32] = [
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.allocs_per_frame", "count"),
    ("proto.req_bytes", "bytes"),
    ("proto.reply_bytes", "bytes"),
    ("core.enqueue_ns", "ns"),
    ("core.pump_ns", "ns"),
    ("core.self_ns", "ns"),
    ("core.allocs_per_req", "count"),
    ("core.rejected", "count"),
    ("core.accounting_ok", "flag"),
    ("tenant.observe_ns", "ns"),
    ("tenant.ballot_ns", "ns"),
    ("tenant.round_ns", "ns"),
    ("tenant.allocs_per_round", "count"),
    ("tenant.heap_bytes", "bytes"),
    ("voting.vote_of_n_ns", "ns"),
    ("telemetry.overhead_share", "ratio"),
    ("reactor.sweeps_per_req", "1/req"),
    ("reactor.sweep_p50_ns", "ns"),
    ("reactor.busy_share", "ratio"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("switchboard.ns_per_step", "ns"),
    ("switchboard.allocs_per_step", "count"),
    ("voting.majority_u64_ns", "ns"),
    ("switchboard.controller_ns", "ns"),
    ("switchboard.faults", "count"),
    ("switchboard.raises", "count"),
    ("switchboard.lowers", "count"),
    ("switchboard.voting_failures", "count"),
    ("trace.overhead_share", "ratio"),
];

/// One measured value, with context for the human-readable line
/// (sample counts).
#[derive(Debug, Clone, PartialEq)]
struct Value {
    value: f64,
    note: String,
}

/// What a run reports.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failures: Failures,
    values: Vec<(&'static str, Value)>,
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.count == 0
    }

    /// Records metric `name`, which must be one `BENCHMARK.json` lists.
    fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a metric of BENCHMARK.json"
        );
        self.values.push((name, Value { value, note }));
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// Every metric of `table` in its order, with its unit: the value
    /// recorded, or 0 where none was.
    fn metrics(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, Value)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.iter().find(|(n, _)| *n == name).map_or(
                    Value {
                        value: 0.0,
                        note: String::new(),
                    },
                    |(_, v)| v.clone(),
                );
                (name, unit, value)
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    fn json(&self, metrics: &[(&str, &str, Value)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.count
        );
        for (i, (name, unit, v)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        s.push_str("}}");
        s
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn ok_share(attempted: u64, failed: u64) -> f64 {
    1.0 - (failed as f64 / attempted.max(1) as f64).min(1.0)
}

/// Each figure's median over the run's passes (campaigns).
fn run_figures(figures: &[Figures]) -> Figures {
    if figures.is_empty() {
        Figures::default()
    } else {
        Figures::median_of(figures)
    }
}

/// The nine end-to-end metrics: each figure's median over the run's
/// passes (campaigns), plus set-up, heap and the share of checks passed.
fn end_to_end(out: &mut Outcome, figures: &[Figures], setup_ns: &[u64], what: &str) {
    if figures.is_empty() {
        out.failures.add(|| format!("no {what} produced figures"));
    }
    let m = run_figures(figures);
    out.notes.push(if m.speed > 0.0 {
        format!(
            "times and rates at the reference speed of {} units/s; the machine ran at {:.0} (median)",
            calib::REFERENCE,
            m.speed
        )
    } else {
        "times and rates as measured (bound by the reactor's poll sleeps, not by CPU speed)"
            .to_string()
    });
    let of = format!("median of {} {what}", figures.len());
    let req = format!("{of}, {} samples", m.req_samples);
    let round = format!("{of}, {} samples", m.round_samples);
    out.set_noted("req_per_s", m.req_per_s, of.clone());
    out.set_noted("req_p50_us", m.req_p50_us, req.clone());
    out.set_noted("req_p99_us", m.req_p99_us, req);
    out.set_noted("round_p50_us", m.round_p50_us, round.clone());
    out.set_noted("round_p99_us", m.round_p99_us, round);
    out.set_noted("steps_per_s", m.steps_per_s, of.clone());
    let ok = ok_share(out.attempted, out.failures.count);
    out.set_noted("ok_share", ok, format!("failed_share {}", 1.0 - ok));
    out.set_noted(
        "setup_s",
        median_of_means(setup_ns, SETUP_GROUP) / 1e9,
        format!(
            "median of the means of {} groups of {SETUP_GROUP} set-ups",
            setup_ns.len() / SETUP_GROUP
        ),
    );
    out.set_noted("heap_mb", m.heap_mb, of);
}

// ---------------------------------------------------------------------------
// serve_*
// ---------------------------------------------------------------------------

/// The cost tracing should not move: time per request in process,
/// wall per ack over TCP at saturation, median latency when paced.
fn serve_cost(workload: Workload, run: &serve::ServeRun) -> f64 {
    let m = run_figures(&run.figures);
    match workload {
        Workload::ServePaced => m.req_p50_us,
        _ => 1.0 / m.req_per_s,
    }
}

fn serve_outcome(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inputs = serve::Inputs::generate(args.workload, args.seed);
    if !args.trace {
        let mut plain = serve::run(args.workload, &inputs, args.seconds, None);
        out.attempted += plain.requests;
        out.failures.absorb(std::mem::take(&mut plain.failures));
        end_to_end(&mut out, &plain.figures, &plain.setup_ns, "passes");
        return out;
    }
    // The traced run splits its time: untraced passes (the baseline of
    // the tracing overhead, and the reactor's own figures), then traced
    // ones.
    let half = (args.seconds / 2).max(1);
    let mut plain = serve::run(args.workload, &inputs, half, None);
    let mut tracer = Tracer::new();
    let mut traced = serve::run(args.workload, &inputs, half, Some(&mut tracer));
    out.attempted += plain.requests + traced.requests;
    out.failures.absorb(std::mem::take(&mut plain.failures));
    out.failures.absorb(std::mem::take(&mut traced.failures));

    let proto = replay::proto(&inputs.traffic, &inputs.expected, &mut tracer);
    let tenant = replay::tenants(&inputs.traffic, &mut tracer);
    out.set("proto.decode_ns", proto.decode_ns);
    out.set("proto.encode_ns", proto.encode_ns);
    out.set("proto.allocs_per_frame", proto.allocs_per_frame);
    out.set("proto.req_bytes", proto.req_bytes);
    out.set("proto.reply_bytes", proto.reply_bytes);
    out.set("core.rejected", (plain.rejected + traced.rejected) as f64);
    out.set(
        "core.accounting_ok",
        f64::from(u8::from(plain.accounting_ok && traced.accounting_ok)),
    );
    out.set("tenant.observe_ns", tenant.observe_ns);
    out.set("tenant.ballot_ns", tenant.ballot_ns);
    out.set("tenant.round_ns", tenant.round_ns);
    out.set("tenant.allocs_per_round", tenant.allocs_per_round);
    out.set("tenant.heap_bytes", tenant.heap_bytes as f64);
    out.set("voting.vote_of_n_ns", tenant.vote_of_n_ns);

    if args.workload == Workload::ServeInproc {
        // Every time here is at reference speed, so the replayed layers
        // subtract from the traced ones though they ran at other moments.
        let requests = traced.requests.max(1) as f64;
        let enqueue = traced.enqueue_ns / requests;
        let pump = traced.pump_ns / requests;
        let proto_per_req = (proto.decode_ns * proto.requests as f64
            + proto.encode_ns * proto.replies as f64)
            / proto.requests as f64;
        let tenant_per_req = tenant.total_ns / tenant.requests as f64;
        let self_ns = enqueue + pump - proto_per_req - tenant_per_req;
        if self_ns < 0.0 {
            out.failures.add(|| {
                format!("core.self_ns {self_ns:.1} < 0: the replayed proto and tenant time does not fit in the traced enqueue + pump")
            });
        }
        out.set("core.enqueue_ns", enqueue);
        out.set("core.pump_ns", pump);
        out.set_noted(
            "core.self_ns",
            self_ns,
            format!(
                "= {enqueue:.1} + {pump:.1} - proto {proto_per_req:.1} - tenant {tenant_per_req:.1}"
            ),
        );
        out.set("core.allocs_per_req", traced.core_allocs as f64 / requests);
        let telemetry = telemetry_overhead(&inputs, &mut out);
        out.set("telemetry.overhead_share", telemetry);
    } else {
        let sweeps = &plain.sweeps;
        out.set_noted(
            "reactor.sweeps_per_req",
            sweeps.count as f64 / plain.requests.max(1) as f64,
            format!("{} sweeps", sweeps.count),
        );
        out.set("reactor.sweep_p50_ns", sweeps.p50_ns());
        out.set(
            "reactor.busy_share",
            sweeps.sum_ns as f64 / plain.wall_ns.max(1) as f64,
        );
    }

    if args.workload == Workload::ServePaced {
        let mut late = plain.late.clone();
        late.sort_unstable();
        let late_at = |q| percentile(&late, q).map_or(0.0, us);
        out.set_noted(
            "gen.late_p50_us",
            late_at(0.5),
            format!("{} sends", late.len()),
        );
        out.set("gen.late_p99_us", late_at(0.99));
    }

    let overhead = serve_cost(args.workload, &traced) / serve_cost(args.workload, &plain) - 1.0;
    out.set("trace.overhead_share", overhead);
    write_spans(args, &tracer, &mut out);
    out
}

/// `serve_inproc` passes with telemetry on and off, alternated:
/// (on ÷ off) − 1 of summed server time.
fn telemetry_overhead(inputs: &serve::Inputs, out: &mut Outcome) -> f64 {
    let plan = inputs.plan();
    let (mut on, mut off) = (0u64, 0u64);
    for _ in 0..5 {
        for telemetry in [true, false] {
            let pass = serve::inproc_pass(&plan, telemetry, None);
            out.attempted += pass.requests;
            out.failures.absorb(pass.failures);
            if telemetry {
                on += pass.work_ns;
            } else {
                off += pass.work_ns;
            }
        }
    }
    on as f64 / off.max(1) as f64 - 1.0
}

fn write_spans(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let path: PathBuf = [OUT_DIR, &format!("trace-{}.jsonl", args.workload.name())]
        .iter()
        .collect();
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "spans: {} kept in {}, {} beyond the cap counted only",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        )),
        Err(e) => out
            .failures
            .add(|| format!("writing {}: {e}", path.display())),
    }
}

// ---------------------------------------------------------------------------
// campaign_fig7
// ---------------------------------------------------------------------------

fn campaign_outcome(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seconds = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let mut plain = campaign::run(args.seed, seconds, None, true);
    out.attempted += plain.attempted;
    out.failures.absorb(std::mem::take(&mut plain.failures));
    if !args.trace {
        end_to_end(&mut out, &plain.figures, &plain.setup_ns, "campaigns");
        out.notes.push(format!(
            "a campaign request is one {}-step chunk; a round is one simulated step",
            campaign::CHUNK
        ));
        return out;
    }
    let mut tracer = Tracer::new();
    let mut traced = campaign::run(args.seed, seconds, Some(&mut tracer), false);
    out.attempted += traced.attempted;
    out.failures.absorb(std::mem::take(&mut traced.failures));
    let steps = traced.steps.max(1) as f64;
    out.set("switchboard.ns_per_step", traced.chunk_ns as f64 / steps);
    out.set(
        "switchboard.allocs_per_step",
        traced.chunk_allocs as f64 / steps,
    );
    let report = plain.report.as_ref().expect("a run completes a campaign");
    let layers =
        campaign::replay_layers(args.seed, &report.shards[0], &mut tracer, &mut out.failures);
    out.set_noted(
        "voting.majority_u64_ns",
        layers.majority_ns,
        format!("{} rounds of shard 0", layers.rounds),
    );
    out.set("switchboard.controller_ns", layers.controller_ns);
    let s = &report.stats;
    out.set("switchboard.faults", s.faults_injected as f64);
    out.set("switchboard.raises", s.raises as f64);
    out.set("switchboard.lowers", s.lowers as f64);
    out.set("switchboard.voting_failures", s.voting_failures as f64);
    let cost = |r: &campaign::CampaignRun| 1.0 / run_figures(&r.figures).steps_per_s;
    out.set("trace.overhead_share", cost(&traced) / cost(&plain) - 1.0);
    write_spans(args, &tracer, &mut out);
    out
}

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    // On Linux this reads the process's CPU affinity mask.
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    if cpus != 1 {
        eprintln!(
            "perfbench: this process may use {cpus} CPUs; run it confined to one, as in `taskset -c 0 cargo run ...`"
        );
        return ExitCode::from(2);
    }
    let mut out = match args.workload {
        Workload::CampaignFig7 => campaign_outcome(&args),
        _ => serve_outcome(&args),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = out.metrics(table);
    for (name, _, v) in &mut metrics {
        if !v.value.is_finite() {
            out.failures
                .add(|| format!("{name} is not a finite number"));
            v.value = 0.0;
        }
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {cpus})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    for (name, unit, v) in &metrics {
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", v.note)
        };
        println!("  {name:<28} {:>16.4} {unit}{note}", v.value);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for reason in &out.failures.reasons {
        println!("  CHECK FAILED: {reason}");
    }
    println!(
        "  checks: {} of {} attempted failed",
        out.failures.count,
        out.attempted.max(1)
    );
    println!("{}", out.json(&metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value as Json;

    #[test]
    fn metric_tables_and_workloads_match_benchmark_json() {
        let doc: Json = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |v: &Json, key: &str| -> String {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no string `{key}` in {v:?}"))
                .to_string()
        };
        let list = |key: &str| -> Vec<&Json> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("no array `{key}`"))
                .iter()
                .collect()
        };
        let metrics = |key: &str| -> Vec<(String, String)> {
            list(key)
                .into_iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(metrics("end_to_end"), owned(&END_TO_END));
        assert_eq!(metrics("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads")
            .into_iter()
            .map(|w| field(w, "name"))
            .collect();
        let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn unset_metrics_read_zero_in_table_order() {
        let mut out = Outcome::default();
        out.set("core.pump_ns", 7.5);
        let metrics = out.metrics(&PER_LAYER);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .iter()
            .all(|(n, _, v)| v.value == if *n == "core.pump_ns" { 7.5 } else { 0.0 }));
        let json = out.json(&metrics[5..7]);
        assert!(json.ends_with(
            "\"core.enqueue_ns\": {\"value\": 0, \"unit\": \"ns\"}, \"core.pump_ns\": {\"value\": 7.5, \"unit\": \"ns\"}}}"
        ));
    }

    #[test]
    #[should_panic(expected = "not a metric of BENCHMARK.json")]
    fn an_undeclared_metric_is_a_bug() {
        Outcome::default().set("core.pump_nss", 1.0);
    }
}
