//! End-to-end runs: what a user of the server or of the trainer sees.

use crate::check::check_reply;
use crate::loadgen::{closed_loops, open_loop, poisson_schedule, Conn, Outcome, Reply};
use crate::stats::{
    digest_f32, highest_supported_percentile, median, median_block_rate, percentile, sorted,
};
use crate::workload::{
    city_spec, metr_data, metr_spec, new_trainer, start_stack, train_order, ServeSpec, Stack,
    Workload, METR_BLOCK, METR_CONNECTIONS, METR_OPEN_SHARE, METR_RATE, TRAIN_BATCH,
};
use crate::Report;
use d2stgnn_tensor::Array;
use std::time::{Duration, Instant};

/// Training steps whose losses make up the arithmetic digest; every run
/// takes at least this many timed steps.
pub const DIGEST_STEPS: usize = 3;

/// Run one workload end to end for `seconds`, setting up `setup_reps`
/// times.
pub fn run(workload: Workload, seed: u64, seconds: f64, setup_reps: usize) -> Report {
    match workload {
        Workload::MetrHttp => http(metr_spec(seed), seed, seconds, setup_reps, true),
        Workload::CityHttp => http(city_spec(seed), seed, seconds, setup_reps, false),
        Workload::MetrTrain => train(seed, seconds, setup_reps),
    }
}

/// Set up the stack `reps` times, timing each from the first call into the
/// program to the first reply; keeps the last stack running.
pub fn timed_setups(spec: &ServeSpec, reps: usize) -> (Stack, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = kept.take() {
            Stack::shutdown(previous);
        }
        let t0 = Instant::now();
        let stack = start_stack(spec);
        let mut conn = Conn::connect(stack.front.local_addr()).expect("connect");
        conn.send(&spec.requests[0]).expect("send first request");
        let reply = conn
            .recv(None)
            .expect("first reply")
            .expect("blocking receive");
        times.push((reply.at - t0).as_secs_f64());
        assert_eq!(reply.status, 200, "first reply failed during set-up");
        kept = Some(stack);
    }
    (kept.expect("at least one set-up"), times)
}

/// Drive the workload's HTTP load on a running stack for `seconds`.
pub fn drive_http(
    spec: &ServeSpec,
    stack: &Stack,
    references: &[Array],
    seed: u64,
    seconds: f64,
    open: bool,
) -> Outcome {
    let addr = stack.front.local_addr();
    let check = |w: usize, r: &Reply| check_reply(r.status, &r.body, &references[w]);
    if !open {
        return closed_loops(addr, seconds, 1, &spec.requests, &check);
    }
    let schedule = poisson_schedule(seed, METR_RATE, seconds, spec.requests.len());
    let per_conn: Vec<Vec<_>> = (0..METR_CONNECTIONS)
        .map(|c| {
            schedule
                .iter()
                .skip(c)
                .step_by(METR_CONNECTIONS)
                .copied()
                .collect()
        })
        .collect();
    // Leave the threads a moment to connect before the first due time.
    let start = Instant::now() + Duration::from_millis(50);
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|arrivals| s.spawn(|| open_loop(addr, start, arrivals, &spec.requests, &check)))
            .collect();
        for h in handles {
            total.merge(h.join().expect("load generator thread"));
        }
    });
    total
}

fn http(spec: ServeSpec, seed: u64, seconds: f64, setup_reps: usize, open: bool) -> Report {
    let (stack, setups) = timed_setups(&spec, setup_reps);
    stack.warm_workers(&spec);
    let references = stack.references(&spec);
    // Latency comes from the workload's own load. Throughput comes from a
    // closed loop: on city_http that is the load itself, on metr_http a
    // saturation phase after the open loop, whose throughput would only
    // echo its offered rate.
    let (out, saturated) = if open {
        let open_s = seconds * METR_OPEN_SHARE;
        let out = drive_http(&spec, &stack, &references, seed, open_s, true);
        let check = |w: usize, r: &Reply| check_reply(r.status, &r.body, &references[w]);
        let saturated = closed_loops(
            stack.front.local_addr(),
            seconds - open_s,
            METR_CONNECTIONS,
            &spec.requests,
            &check,
        );
        (out, Some(saturated))
    } else {
        (
            drive_http(&spec, &stack, &references, seed, seconds, false),
            None,
        )
    };
    let serve = stack.server.stats();
    let front = stack.front.stats();
    stack.shutdown();

    let lat = sorted(out.latencies_ms.clone());
    let lags = sorted(out.lags_ms.clone());
    let mut report = Report::new(out.sent, out.failed);
    let (done_s, per_block) = match &saturated {
        Some(s) => {
            report.count(s.sent, s.failed);
            report.note("offered_rate_per_s", METR_RATE);
            report.note(
                "saturated_latency_p50_ms",
                tail(&sorted(s.latencies_ms.clone()), 50.0),
            );
            (s.done_s.clone(), METR_BLOCK)
        }
        None => (out.done_s.clone(), 1),
    };
    report.metric("latency_p50_ms", tail(&lat, 50.0), "ms");
    report.metric(
        "windows_per_s",
        median_block_rate(&sorted(done_s), per_block),
        "windows/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("setup_s", median(&setups), "s");
    // Recorded, not gated: see README.md on the slow serve-stack mode.
    report.note("latency_p95_ms", tail(&lat, 95.0));
    report.note("samples", lat.len());
    report.note(
        "highest_supported_percentile",
        highest_supported_percentile(lat.len()),
    );
    report.note("latency_max_ms", lat.last().copied());
    report.note(
        "loadgen_lag_p99_ms",
        if lags.is_empty() {
            0.0
        } else {
            percentile(&lags, 99.0)
        },
    );
    report.note("setup_s_samples", setups);
    report.note(
        "first_error",
        out.first_error
            .or_else(|| saturated.and_then(|s| s.first_error)),
    );
    report.note("latencies_ms", out.latencies_ms);
    report.note("serve_mean_batch", serve.mean_batch_size);
    report.note("serve_fallback_served", serve.fallback_served);
    report.note("httpd_responses_2xx", front.responses_2xx);
    report.note("httpd_responses_5xx", front.responses_5xx);
    report
}

fn train(seed: u64, seconds: f64, setup_reps: usize) -> Report {
    let data = metr_data(seed);
    let order = train_order(&data, seed);
    let mut setups = Vec::new();
    let mut trainer = None;
    for _ in 0..setup_reps.max(1) {
        drop(trainer.take());
        let t0 = Instant::now();
        let mut t = new_trainer(&data, order.clone(), seed);
        t.step(&data);
        setups.push(t0.elapsed().as_secs_f64());
        trainer = Some(t);
    }
    let mut trainer = trainer.expect("at least one set-up");

    let mut step_ms = Vec::new();
    let mut done_s = Vec::new();
    let mut losses = Vec::new();
    let t0 = Instant::now();
    while losses.len() < DIGEST_STEPS || t0.elapsed().as_secs_f64() < seconds {
        let s = Instant::now();
        losses.push(trainer.step(&data));
        step_ms.push(s.elapsed().as_secs_f64() * 1e3);
        done_s.push(t0.elapsed().as_secs_f64());
    }
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;

    let lat = sorted(step_ms.clone());
    let mut report = Report::new(losses.len() as u64, bad);
    report.metric("latency_p50_ms", tail(&lat, 50.0), "ms");
    report.metric(
        "windows_per_s",
        median_block_rate(&done_s, 1) * TRAIN_BATCH as f64,
        "windows/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("setup_s", median(&setups), "s");
    // Recorded, not gated: see README.md on the slow serve-stack mode.
    report.note("latency_p95_ms", tail(&lat, 95.0));
    report.note("samples", lat.len());
    report.note(
        "highest_supported_percentile",
        highest_supported_percentile(lat.len()),
    );
    report.note("setup_s_samples", setups);
    report.note("latencies_ms", step_ms);
    report.note(
        "loss_digest",
        format!("{:016x}", digest_f32(&losses[..DIGEST_STEPS])),
    );
    report.note("first_losses", losses[..DIGEST_STEPS].to_vec());
    report
}

fn tail(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        0.0
    } else {
        percentile(sorted_ms, p)
    }
}

/// High-water resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
