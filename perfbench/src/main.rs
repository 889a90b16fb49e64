//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics on an untraced run, the per-layer
//! metrics on a traced one. A traced run also writes its spans, one JSON
//! object per line, under `out/` next to this crate's manifest. Exits 1
//! when any output was wrong, 2 on bad arguments.

use perfbench::workloads::{run, RunOptions, Workload};
use perfbench::{Host, Metrics, Outcome, END_TO_END};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<RunOptions, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOptions {
        workload: Workload::IngestEpochs,
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let bad = |what: &str| format!("bad {key} value '{value}': {what}");
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {key}")),
        }
    }
    opts.workload = workload.ok_or("missing --workload")?;
    Ok(opts)
}

/// `{"name":{"value":v,"unit":"u"},...}` over `names`, in order. A value
/// the run did not produce, or that is not finite, is an error.
fn metrics_json<'a>(
    metrics: &Metrics,
    names: impl Iterator<Item = &'a str>,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for name in names {
        let (value, unit) = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn write_spans(opts: &RunOptions, tracer: &perfbench::trace::Tracer, host: &Host) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        use std::io::Write;
        writeln!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"kernel_backend\":\"{}\"}}",
            opts.workload.name(),
            opts.seed,
            host.nproc,
            host.kernel_backend
        )?;
        tracer.write_jsonl(&mut out)?;
        out.flush()
    });
    match written {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written ({}): {e}", path.display()),
    }
}

fn report(opts: &RunOptions, host: &Host, outcome: &Outcome) {
    println!(
        "host {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"kernel_backend\":\"{}\"}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host.nproc,
        host.kernel_backend
    );
    let label = if opts.trace { "e2e traced" } else { "e2e" };
    for (name, (value, unit)) in &outcome.e2e {
        println!("{label:<18} {name:<28} {value:>16.6} {unit}");
    }
    for (name, (value, unit)) in &outcome.e2e_untraced {
        println!("{:<18} {name:<28} {value:>16.6} {unit}", "e2e untraced");
    }
    for (name, (value, unit)) in &outcome.layers {
        println!("{:<18} {name:<40} {value:>16.6} {unit}", "layer");
    }
    for line in &outcome.self_table {
        println!("self-time          {line}");
    }
    for (name, value) in &outcome.counts {
        println!("{:<18} {name:<28} {value}", "deterministic");
    }
    println!(
        "checks             attempted={} failed={}",
        outcome.checks.attempted, outcome.checks.failed
    );
    for note in &outcome.checks.notes {
        println!("failure            {note}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let (outcome, tracer) = match run(&opts) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    report(&opts, &host, &outcome);
    if opts.trace {
        println!("{}", write_spans(&opts, &tracer, &host));
    }
    let names: Vec<&str> = if opts.trace {
        outcome.layers.keys().map(String::as_str).collect()
    } else {
        END_TO_END.iter().map(|&(name, _)| name).collect()
    };
    let metrics = match metrics_json(
        if opts.trace {
            &outcome.layers
        } else {
            &outcome.e2e
        },
        names.into_iter(),
    ) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = outcome.correct();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.checks.attempted, outcome.checks.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
