//! The traced run: per-layer metrics at each workload's own shapes.
//!
//! Every timing here wraps a call into one public function of the
//! program from the benchmark's side; nothing inside the program is
//! patched. The D²STGNN parts are rebuilt from the workload's model
//! configuration (same constructors, same shapes as inside the model) and
//! timed one by one, interleaved with the whole model's forward;
//! `core.parts_coverage` checks that the parts add up to that forward, and
//! on the HTTP shapes a coverage outside
//! [`COVERAGE_BAND`](crate::stats::COVERAGE_BAND) fails the run.
//!
//! Metrics for a layer that is not on a workload's path are reported as 0
//! (e.g. `tensor.spmm_ms` on the dense METR model, the HTTP layers on
//! `metr_train`); README.md lists which.

use crate::check::check_reply;
use crate::e2e::{drive_http, timed_setups};
use crate::loadgen::Conn;
use crate::stats::{coverage_in_band, median, parts_coverage, percentile, sorted};
use crate::workload::{
    city_config, city_spec, metr_config, metr_data, metr_spec, new_trainer, train_order, ServeSpec,
    Workload, TF, TH, TRAIN_BATCH,
};
use crate::Report;
use d2stgnn_core::diffusion::{DiffusionBlock, DiffusionBlockConfig};
use d2stgnn_core::embeddings::SharedEmbeddings;
use d2stgnn_core::forecast::ForecastBranch;
use d2stgnn_core::gate::EstimationGate;
use d2stgnn_core::graphs::{adaptive_transition, DynamicGraphLearner, GraphContext, Transitions};
use d2stgnn_core::inherent::{InherentBlock, InherentBlockConfig};
use d2stgnn_core::{D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{Batch, Split, StandardScaler};
use d2stgnn_httpd::api::{ForecastBody, ForecastReply};
use d2stgnn_httpd::RequestParser;
use d2stgnn_tensor::losses::masked_mae_loss;
use d2stgnn_tensor::nn::{Linear, Mlp};
use d2stgnn_tensor::{no_grad, Array, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("httpd.parse_us", "us"),
    ("httpd.decode_ms", "ms"),
    ("httpd.encode_ms", "ms"),
    ("httpd.self_ms", "ms"),
    ("httpd.responses_2xx", "count"),
    ("httpd.responses_5xx", "count"),
    ("httpd.shed", "count"),
    ("serve.infer_ms", "ms"),
    ("serve.batch_size_mean", "req/batch"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.forward_ms", "ms"),
    ("serve.postprocess_ms", "ms"),
    ("serve.fallback_served", "count"),
    ("serve.sheds", "count"),
    ("serve.deadline_misses", "count"),
    ("core.model.fwd_ms", "ms"),
    ("core.dynamic_graph.fwd_ms", "ms"),
    ("core.dynamic_graph.bwd_ms", "ms"),
    ("core.adaptive.fwd_ms", "ms"),
    ("core.gate.fwd_ms", "ms"),
    ("core.gate.bwd_ms", "ms"),
    ("core.diffusion.fwd_ms", "ms"),
    ("core.diffusion.bwd_ms", "ms"),
    ("core.inherent.fwd_ms", "ms"),
    ("core.inherent.bwd_ms", "ms"),
    ("core.forecast.fwd_ms", "ms"),
    ("core.residual.fwd_ms", "ms"),
    ("core.io.fwd_ms", "ms"),
    ("core.parts_coverage", "ratio"),
    ("tensor.permute_ms", "ms"),
    ("tensor.bcast_add_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.spmm_ms", "ms"),
    ("tensor.softmax_ms", "ms"),
    ("tensor.mb_moved.permute", "MB"),
    ("tensor.mb_moved.bcast_add", "MB"),
    ("tensor.mb_moved.matmul", "MB"),
    ("tensor.mb_moved.spmm", "MB"),
    ("tensor.mb_moved.softmax", "MB"),
    ("tensor.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.optim_ms", "ms"),
    ("tensor.tape_peak_mb", "MB"),
    ("data.batch_ms", "ms"),
    ("graph.context_ms", "ms"),
    ("obsv.overhead_pct", "%"),
    ("loadgen.lag_ms", "ms"),
];

/// Seconds of timing each cheap call gets before its median is taken.
const CALL_BUDGET_S: f64 = 0.25;
/// Seconds of timing the interleaved forward rounds get together, and the
/// fewest rounds: all but the last give one coverage ratio each, and the
/// median of five holds still where one of three swings with a slow spell.
const ROUND_BUDGET_S: f64 = 3.0;
const MIN_ROUNDS: usize = 6;
/// Repetition bounds per timed call; at least three, so the median is a
/// middle value rather than the faster of two.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;
/// Idle request pairs (in-process, then HTTP) behind `serve.infer_ms` and
/// `httpd.self_ms`.
const IDLE_PAIRS_METR: usize = 16;
const IDLE_PAIRS_CITY: usize = 2;
/// Megabytes in the byte counts (2^20, as `VmHWM`'s kB / 1024).
const MB: f64 = 1024.0 * 1024.0;

/// Run the per-layer measurements of one workload. The loaded phase
/// (under the workload's own traffic, for counters, serve histograms and
/// the traced latency) lasts `load_seconds`.
pub fn run(workload: Workload, seed: u64, load_seconds: f64) -> Report {
    assert!(
        d2stgnn_obsv::enabled(),
        "per-layer runs need the obsv build (cargo feature `obsv`)"
    );
    let mut report = match workload {
        Workload::MetrHttp => http(metr_spec(seed), seed, load_seconds, true),
        Workload::CityHttp => http(city_spec(seed), seed, load_seconds, false),
        Workload::MetrTrain => train(seed, load_seconds),
    };
    core_and_tensor(workload, seed, &mut report);
    // Layers not on this workload's path read 0.
    for (name, unit) in PER_LAYER {
        if !report.has(name) {
            report.metric(name, 0.0, unit);
        }
    }
    report.order_by(PER_LAYER);
    report
}

/// Median wall time of `f` in ms. The first call warms caches and pools
/// and is not counted; the rest fill about [`CALL_BUDGET_S`].
fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64();
    let reps = ((CALL_BUDGET_S / once.max(1e-9)) as usize).clamp(MIN_REPS, MAX_REPS);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Which sum of `core.parts_coverage` a timed forward belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// The whole model.
    Model,
    /// A part run once per forward.
    Once,
    /// A part run once per layer.
    PerLayer,
    /// A part inside another part, kept out of the sum.
    Sub,
}

/// A forward to time: its metric name, its role and the call.
type Call<'a> = (&'static str, Role, Box<dyn FnMut() + 'a>);

/// Time every call once per round, after one untimed warm-up round, for
/// about [`ROUND_BUDGET_S`]. Interleaving puts a slow spell of the host on
/// both sides of a round's coverage ratio rather than on one of them.
/// Returns one row of samples (ms) per call.
fn timed_rounds(calls: &mut [Call]) -> Vec<Vec<f64>> {
    fn once(f: &mut dyn FnMut()) -> f64 {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    }
    let warm_ms: f64 = calls.iter_mut().map(|(_, _, f)| once(f)).sum();
    let rounds = ((ROUND_BUDGET_S * 1e3 / warm_ms.max(1e-6)) as usize).clamp(MIN_ROUNDS, MAX_REPS);
    let mut samples = vec![Vec::with_capacity(rounds); calls.len()];
    for _ in 0..rounds {
        for (row, (_, _, f)) in samples.iter_mut().zip(calls.iter_mut()) {
            row.push(once(f));
        }
    }
    samples
}

/// Median backward time in ms: `build` records a fresh graph and returns
/// the scalar to differentiate; only `backward` is timed.
fn time_backward_ms(mut build: impl FnMut() -> Tensor) -> f64 {
    let samples: Vec<f64> = (0..MIN_REPS)
        .map(|_| {
            let loss = build();
            let t = Instant::now();
            loss.backward();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Observations of a serve histogram since `before`: their count and
/// their sum in ms.
fn histogram_delta(name: &str, before: (u64, f64)) -> (u64, f64) {
    let h = d2stgnn_obsv::registry().histogram(name);
    (
        h.count().saturating_sub(before.0),
        (h.sum() - before.1) * 1e3,
    )
}

/// Mean of a serve histogram's observations since `before`, in ms.
fn histogram_mean_ms(name: &str, before: (u64, f64)) -> f64 {
    match histogram_delta(name, before) {
        (0, _) => 0.0,
        (count, sum_ms) => sum_ms / count as f64,
    }
}

fn histogram_mark(name: &str) -> (u64, f64) {
    let h = d2stgnn_obsv::registry().histogram(name);
    (h.count(), h.sum())
}

const SERVE_HISTOGRAMS: [(&str, &str); 3] = [
    ("serve.queue_wait_ms", "d2stgnn_serve_queue_wait_seconds"),
    ("serve.forward_ms", "d2stgnn_serve_forward_seconds"),
    ("serve.postprocess_ms", "d2stgnn_serve_postprocess_seconds"),
];
/// A request's whole time inside the engine, enqueue to its row done
/// (batch assembly included). It is observed before the reply is handed
/// back, so it has landed by the time the HTTP reply arrives.
const REQUEST_HISTOGRAM: &str = "d2stgnn_serve_request_seconds";

fn http(spec: ServeSpec, seed: u64, load_seconds: f64, open: bool) -> Report {
    let (stack, _) = timed_setups(&spec, 1);
    stack.warm_workers(&spec);
    let references = stack.references(&spec);

    // Loaded phase: the workload's own traffic.
    let marks: Vec<_> = SERVE_HISTOGRAMS
        .iter()
        .map(|(_, h)| histogram_mark(h))
        .collect();
    let before = stack.server.stats();
    let out = drive_http(&spec, &stack, &references, seed, load_seconds, open);
    let serve = stack.server.stats();
    let front = stack.front.stats();
    let mut report = Report::new(out.sent, out.failed);
    for ((metric, hist), mark) in SERVE_HISTOGRAMS.iter().zip(marks) {
        report.metric(metric, histogram_mean_ms(hist, mark), "ms");
    }
    let batches = serve.batches - before.batches;
    let completed = serve.completed - before.completed;
    report.metric(
        "serve.batch_size_mean",
        if batches == 0 {
            0.0
        } else {
            completed as f64 / batches as f64
        },
        "req/batch",
    );
    report.metric(
        "serve.fallback_served",
        (serve.fallback_served - before.fallback_served) as f64,
        "count",
    );
    report.metric("serve.sheds", (serve.sheds - before.sheds) as f64, "count");
    report.metric(
        "serve.deadline_misses",
        (serve.deadline_misses - before.deadline_misses) as f64,
        "count",
    );
    report.metric("httpd.responses_2xx", front.responses_2xx as f64, "count");
    report.metric("httpd.responses_5xx", front.responses_5xx as f64, "count");
    report.metric("httpd.shed", front.shed as f64, "count");
    let lags = sorted(out.lags_ms.clone());
    report.metric(
        "loadgen.lag_ms",
        if lags.is_empty() {
            0.0
        } else {
            percentile(&lags, 99.0)
        },
        "ms",
    );
    let lat = sorted(out.latencies_ms.clone());
    report.note(
        "traced_latency_p50_ms",
        if lat.is_empty() {
            0.0
        } else {
            percentile(&lat, 50.0)
        },
    );
    report.note("first_error", out.first_error);

    // Idle pairs: a window served in-process, then over HTTP. The HTTP
    // request's own time inside the engine comes from the serve request
    // histogram, so the difference is free of the run-to-run noise of the
    // forward.
    let pairs = if open {
        IDLE_PAIRS_METR
    } else {
        IDLE_PAIRS_CITY
    };
    let mut conn = Conn::connect(stack.front.local_addr()).expect("connect");
    let mut infer_ms = Vec::new();
    let mut self_ms = Vec::new();
    let mut failed = 0;
    for k in 0..pairs {
        let w = k % spec.windows.len();
        let t = Instant::now();
        black_box(stack.infer(&spec, &spec.windows[w]));
        infer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mark = histogram_mark(REQUEST_HISTOGRAM);
        let t = Instant::now();
        conn.send(&spec.requests[w]).expect("send");
        let reply = conn.recv(None).expect("reply").expect("blocking receive");
        let http = (reply.at - t).as_secs_f64() * 1e3;
        let (observed, engine_ms) = histogram_delta(REQUEST_HISTOGRAM, mark);
        // On the idle stack exactly this request is observed.
        let bad = check_reply(reply.status, &reply.body, &references[w]).is_err() || observed != 1;
        failed += u64::from(bad);
        self_ms.push(http - engine_ms);
    }
    report.count(pairs as u64, failed);
    report.metric("serve.infer_ms", median(&infer_ms), "ms");
    report.metric("httpd.self_ms", median(&self_ms), "ms");
    // An open keep-alive connection would hold a front-end worker past
    // the shutdown grace.
    drop(conn);
    stack.shutdown();

    // The front-end's codec and parser on this workload's bytes.
    let request = &spec.requests[0];
    let body = spec.windows[0].body(spec.model);
    let body_json = serde_json::to_string(&body).expect("serialize body");
    report.metric(
        "httpd.parse_us",
        time_ms(|| {
            let mut parser = RequestParser::new(spec.httpd.limits);
            parser.feed(request);
            parser
                .next_request()
                .expect("parse")
                .expect("complete request")
        }) * 1e3,
        "us",
    );
    report.metric(
        "httpd.decode_ms",
        time_ms(|| serde_json::from_str::<ForecastBody>(&body_json).expect("decode")),
        "ms",
    );
    let shape = references[0].shape();
    let reply = ForecastReply {
        model: spec.model.to_string(),
        generation: 1,
        fallback: false,
        shard: 0,
        values: references[0]
            .data()
            .chunks(shape[1])
            .map(<[f32]>::to_vec)
            .collect(),
    };
    report.metric(
        "httpd.encode_ms",
        time_ms(|| serde_json::to_string(&reply).expect("encode")),
        "ms",
    );
    report
}

fn train(seed: u64, load_seconds: f64) -> Report {
    let data = metr_data(seed);
    let mut trainer = new_trainer(&data, train_order(&data, seed), seed);
    trainer.step(&data);

    // Loaded phase: traced training steps.
    let mut step_ms = Vec::new();
    let mut bad = 0;
    let t0 = Instant::now();
    while step_ms.len() < 2 || t0.elapsed().as_secs_f64() < load_seconds {
        let t = Instant::now();
        bad += u64::from(!trainer.step(&data).is_finite());
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut report = Report::new(step_ms.len() as u64, bad);
    report.note("traced_latency_p50_ms", median(&step_ms));

    // One step split into its parts, with the tape profiler on.
    let scaler = *data.scaler();
    let mut backward = Vec::new();
    let mut optim = Vec::new();
    let mut tape_peak = 0usize;
    for _ in 0..MIN_REPS {
        let indices = trainer.next_indices();
        let batch = data.batch(Split::Train, &indices);
        Tape::start_profiling();
        let loss = trainer.loss(&scaler, &batch);
        let t = Instant::now();
        loss.backward();
        backward.push(t.elapsed().as_secs_f64() * 1e3);
        tape_peak = tape_peak.max(Tape::profile_report().peak_tape_bytes);
        Tape::stop_profiling();
        drop(loss);
        let t = Instant::now();
        trainer.optimize();
        optim.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("tensor.backward_ms", median(&backward), "ms");
    report.metric("tensor.optim_ms", median(&optim), "ms");
    report.metric("tensor.tape_peak_mb", tape_peak as f64 / MB, "MB");

    let indices = trainer.next_indices();
    report.metric(
        "data.batch_ms",
        time_ms(|| data.batch(Split::Train, &indices)),
        "ms",
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = [TRAIN_BATCH, TF, metr_config().num_nodes, 1];
    let target = Tensor::constant(Array::randn(&shape, &mut rng));
    let pred = Tensor::parameter(Array::randn(&shape, &mut rng));
    report.metric(
        "tensor.loss_ms",
        time_ms(|| masked_mae_loss(&pred, &target, 0.0)),
        "ms",
    );
    report
}

/// The D²STGNN parts of one layer plus the once-per-forward graph parts,
/// built with the model's own constructors and configuration.
struct Parts {
    cfg: D2stgnnConfig,
    ctx: GraphContext,
    emb: SharedEmbeddings,
    dynamic_graph: Option<DynamicGraphLearner>,
    gate: EstimationGate,
    diffusion: DiffusionBlock,
    inherent: InherentBlock,
    forecast: ForecastBranch,
}

impl Parts {
    fn new(cfg: D2stgnnConfig, ctx: GraphContext, rng: &mut StdRng) -> Parts {
        let emb = SharedEmbeddings::new(cfg.num_nodes, cfg.steps_per_day, cfg.emb_dim, rng);
        let dynamic_graph = cfg
            .use_dynamic_graph
            .then(|| DynamicGraphLearner::new(cfg.th, cfg.hidden, cfg.emb_dim, cfg.hidden, rng));
        let gate = EstimationGate::new(cfg.emb_dim, cfg.hidden, rng);
        let diffusion = DiffusionBlock::new(
            DiffusionBlockConfig {
                ks: cfg.ks,
                kt: cfg.kt,
                hidden: cfg.hidden,
                tf: cfg.tf,
                autoregressive: cfg.use_autoregressive,
                use_adaptive: cfg.use_adaptive,
            },
            rng,
        );
        let inherent = InherentBlock::new(
            InherentBlockConfig {
                hidden: cfg.hidden,
                heads: cfg.heads,
                tf: cfg.tf,
                kt: cfg.kt,
                autoregressive: cfg.use_autoregressive,
                use_gru: cfg.use_gru,
                use_msa: cfg.use_msa,
                dropout: cfg.dropout,
            },
            rng,
        );
        let forecast = if cfg.use_autoregressive {
            ForecastBranch::sliding(cfg.kt, cfg.hidden, rng)
        } else {
            ForecastBranch::direct(cfg.tf, cfg.hidden, rng)
        };
        Parts {
            cfg,
            ctx,
            emb,
            dynamic_graph,
            gate,
            diffusion,
            inherent,
            forecast,
        }
    }

    /// The transitions the diffusion block sees for latent input `x0`.
    fn transitions(&self, x0: &Tensor, tod_last: &[usize], dow_last: &[usize]) -> Transitions {
        match &self.dynamic_graph {
            Some(dg) => {
                let (p_f, p_b) = dg.forward(&self.ctx, &self.emb, x0, tod_last, dow_last);
                Transitions::Dynamic { p_f, p_b }
            }
            None => {
                let (p_f, p_b) = self
                    .ctx
                    .sparse_transitions()
                    .expect("static-graph workloads run the CSR path");
                Transitions::Sparse {
                    p_f: p_f.clone(),
                    p_b: p_b.clone(),
                }
            }
        }
    }
}

/// Everything about a workload's model shape that the part timings need.
struct Shape {
    batch: Batch,
    training: bool,
}

fn core_and_tensor(workload: Workload, seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The model under test, its graph context and one batch of its shape.
    let (model, cfg, ctx_ms, ctx, shape): (D2stgnn, D2stgnnConfig, f64, GraphContext, Shape) =
        match workload {
            Workload::CityHttp => {
                let spec_data = crate::workload::city_data(seed);
                let cfg = city_config(spec_data.steps_per_day);
                let ctx_ms = time_ms(|| GraphContext::from_sparse(&spec_data.network));
                let ctx = GraphContext::from_sparse(&spec_data.network);
                let model = D2stgnn::new_sparse(cfg.clone(), &spec_data.network, &mut rng);
                let scaler = StandardScaler::fit(spec_data.values.data());
                let n = cfg.num_nodes;
                let mut x = Array::zeros(&[1, TH, n, 1]);
                for (t, row) in spec_data.values.data().chunks(n).take(TH).enumerate() {
                    for (i, v) in row.iter().enumerate() {
                        x.set(&[0, t, i, 0], (v - scaler.mean()) / scaler.std());
                    }
                }
                let batch = Batch {
                    x,
                    y: Array::zeros(&[1, TF, n, 1]),
                    tod: (0..TH).map(|t| spec_data.time_of_day(t)).collect(),
                    dow: (0..TH).map(|t| spec_data.day_of_week(t)).collect(),
                };
                (
                    model,
                    cfg,
                    ctx_ms,
                    ctx,
                    Shape {
                        batch,
                        training: false,
                    },
                )
            }
            Workload::MetrHttp | Workload::MetrTrain => {
                let data = metr_data(seed);
                let cfg = metr_config();
                let network = &data.data().network;
                let ctx_ms = time_ms(|| GraphContext::new(network));
                let ctx = GraphContext::new(network);
                let model = D2stgnn::new(cfg.clone(), network, &mut rng);
                let training = workload == Workload::MetrTrain;
                let b = if training { TRAIN_BATCH } else { 1 };
                let indices: Vec<usize> = (0..b).collect();
                let batch = data.batch(Split::Test, &indices);
                (model, cfg, ctx_ms, ctx, Shape { batch, training })
            }
        };
    report.metric("graph.context_ms", ctx_ms, "ms");

    let parts = Parts::new(cfg.clone(), ctx, &mut rng);
    let (b, n, d) = (shape.batch.x.shape()[0], cfg.num_nodes, cfg.hidden);
    let x = Tensor::parameter(Array::randn(&[b, TH, n, d], &mut rng));
    let tod_last: Vec<usize> = (0..b).map(|i| shape.batch.tod[(i + 1) * TH - 1]).collect();
    let dow_last: Vec<usize> = (0..b).map(|i| shape.batch.dow[(i + 1) * TH - 1]).collect();
    let (tod, dow) = (&shape.batch.tod, &shape.batch.dow);
    let transitions = no_grad(|| parts.transitions(&x, &tod_last, &dow_last));
    let adaptive = parts
        .cfg
        .use_adaptive
        .then(|| adaptive_transition(&parts.emb));
    let per_node = Tensor::constant(Array::randn(&[b * n, TH, d], &mut rng));
    let lam = no_grad(|| parts.gate.forward(&parts.emb, tod, dow, b, TH, n));
    let backcast = Tensor::constant(Array::randn(&[b, TH, n, d], &mut rng));
    let input_proj = Linear::new(cfg.in_channels, d, true, &mut rng);
    let regression = Mlp::new(d, d, cfg.out_channels, &mut rng);
    let raw = Tensor::constant(shape.batch.x.clone());
    let forecast_hidden = Tensor::constant(Array::randn(&[b, TF, n, d], &mut rng));
    let mut part_rng = StdRng::seed_from_u64(2);

    let mut calls: Vec<Call> = vec![(
        "core.model.fwd_ms",
        Role::Model,
        Box::new(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(model.forward(&shape.batch, shape.training, &mut rng));
        }),
    )];
    if let Some(dg) = &parts.dynamic_graph {
        calls.push((
            "core.dynamic_graph.fwd_ms",
            Role::Once,
            Box::new(|| {
                black_box(dg.forward(&parts.ctx, &parts.emb, &x, &tod_last, &dow_last));
            }),
        ));
    }
    if parts.cfg.use_adaptive {
        calls.push((
            "core.adaptive.fwd_ms",
            Role::Once,
            Box::new(|| {
                black_box(adaptive_transition(&parts.emb));
            }),
        ));
    }
    calls.push((
        "core.gate.fwd_ms",
        Role::PerLayer,
        Box::new(|| {
            black_box(parts.gate.forward(&parts.emb, tod, dow, b, TH, n));
        }),
    ));
    calls.push((
        "core.diffusion.fwd_ms",
        Role::PerLayer,
        Box::new(|| {
            black_box(
                parts
                    .diffusion
                    .forward(&parts.ctx, &x, &transitions, adaptive.as_ref()),
            );
        }),
    ));
    calls.push((
        "core.inherent.fwd_ms",
        Role::PerLayer,
        Box::new(|| {
            black_box(parts.inherent.forward(&x, shape.training, &mut part_rng));
        }),
    ));
    // The forecast branch runs inside both blocks, so it is a sub-part
    // and stays out of the coverage sum.
    calls.push((
        "core.forecast.fwd_ms",
        Role::Sub,
        Box::new(|| {
            black_box(parts.forecast.forward(&per_node, TF));
        }),
    ));
    // The decoupling links of one layer: the gate applied to the layer
    // input (Eq. 3) and the two residual subtractions (Eqs. 1 and 2).
    calls.push((
        "core.residual.fwd_ms",
        Role::PerLayer,
        Box::new(|| {
            let gated = lam.mul(&x);
            let x_inh = x.sub(&backcast);
            black_box((gated, x_inh.sub(&backcast)));
        }),
    ));
    // Once per forward: the input projection, the sum of the two branches'
    // forecasts and the output regression (Eq. 15).
    calls.push((
        "core.io.fwd_ms",
        Role::Once,
        Box::new(|| {
            let x0 = input_proj.forward(&raw);
            let h = forecast_hidden.add(&forecast_hidden);
            black_box((x0, regression.forward(&h)));
        }),
    ));
    // Forward passes run the way the workload runs them: without a tape
    // when serving, with one when training.
    let samples = if shape.training {
        timed_rounds(&mut calls)
    } else {
        no_grad(|| timed_rounds(&mut calls))
    };
    let roles: Vec<Role> = calls.iter().map(|(_, role, _)| *role).collect();
    for ((name, _, _), row) in calls.iter().zip(&samples) {
        report.metric(name, median(row), "ms");
    }
    drop(calls);
    drop(model);
    // One coverage ratio per round: the round's parts over the mean of the
    // model forwards just before and just after them, which cancels a
    // steady drift of the host's speed.
    let pick = |want: Role, r: usize| -> Vec<f64> {
        roles
            .iter()
            .zip(&samples)
            .filter(|(role, _)| **role == want)
            .map(|(_, row)| row[r])
            .collect()
    };
    let round_coverage: Vec<f64> = (0..samples[0].len() - 1)
        .map(|r| {
            parts_coverage(
                &pick(Role::Once, r),
                &pick(Role::PerLayer, r),
                cfg.layers,
                (pick(Role::Model, r)[0] + pick(Role::Model, r + 1)[0]) / 2.0,
            )
        })
        .collect();
    let coverage = median(&round_coverage);
    report.metric("core.parts_coverage", coverage, "ratio");
    report.note("coverage_per_round", &round_coverage);
    if workload != Workload::MetrTrain {
        // On the HTTP shapes a coverage outside the band means the parts no
        // longer add up to the model: attribution has drifted.
        report.count(1, u64::from(!coverage_in_band(coverage)));
    }

    if let Some(dg) = &parts.dynamic_graph {
        let bwd = time_backward_ms(|| {
            let (p_f, p_b) = dg.forward(&parts.ctx, &parts.emb, &x, &tod_last, &dow_last);
            p_f.sum_all().add(&p_b.sum_all())
        });
        report.metric("core.dynamic_graph.bwd_ms", bwd, "ms");
    }
    report.metric(
        "core.gate.bwd_ms",
        time_backward_ms(|| parts.gate.forward(&parts.emb, tod, dow, b, TH, n).sum_all()),
        "ms",
    );
    report.metric(
        "core.diffusion.bwd_ms",
        time_backward_ms(|| {
            let out = parts
                .diffusion
                .forward(&parts.ctx, &x, &transitions, adaptive.as_ref());
            out.forecast.sum_all().add(&out.backcast.sum_all())
        }),
        "ms",
    );
    report.metric(
        "core.inherent.bwd_ms",
        time_backward_ms(|| {
            let out = parts.inherent.forward(&x, shape.training, &mut part_rng);
            out.forecast.sum_all().add(&out.backcast.sum_all())
        }),
        "ms",
    );

    // Kernels at this workload's activation shape [B, T_h, N, d].
    let x_val = Tensor::constant(x.value());
    let numel = (b * TH * n * d) as f64;
    no_grad(|| {
        report.metric(
            "tensor.permute_ms",
            time_ms(|| x_val.permute(&[0, 2, 1, 3])),
            "ms",
        );
        report.metric("tensor.mb_moved.permute", 2.0 * numel * 4.0 / MB, "MB");
        let h = x_val.reshape(&[b * n, TH, d]);
        let pe = Tensor::constant(Array::randn(&[1, TH, d], &mut rng));
        report.metric(
            "tensor.bcast_add_ms",
            time_ms(|| h.add(&pe.broadcast_to(&[b * n, TH, d]))),
            "ms",
        );
        // broadcast_to reads the [1, T_h, d] operand and writes a full
        // copy; add reads two full operands and writes one.
        report.metric(
            "tensor.mb_moved.bcast_add",
            ((TH * d) as f64 + 4.0 * numel) * 4.0 / MB,
            "MB",
        );
        let linear = Linear::new(d, d, true, &mut rng);
        report.metric("tensor.matmul_ms", time_ms(|| linear.forward(&x_val)), "ms");
        report.metric(
            "tensor.mb_moved.matmul",
            (2.0 * numel + (d * d + d) as f64) * 4.0 / MB,
            "MB",
        );
        if let Transitions::Sparse { p_f, .. } = &transitions {
            let z = x_val.reshape(&[b * TH, n, d]);
            let csr = p_f.mask_diagonal();
            report.metric(
                "tensor.spmm_ms",
                time_ms(|| Tensor::spmm(csr.as_sparse(), &z)),
                "ms",
            );
            // CSR values (f32) and column indices (u64) plus row pointers,
            // the dense input and the output.
            let csr_bytes = csr.nnz() as f64 * 12.0 + (n + 1) as f64 * 8.0;
            report.metric(
                "tensor.mb_moved.spmm",
                (csr_bytes + 2.0 * numel * 4.0) / MB,
                "MB",
            );
        }
        if parts.dynamic_graph.is_some() {
            let scores = Tensor::constant(Array::randn(&[b, n, n], &mut rng));
            report.metric("tensor.softmax_ms", time_ms(|| scores.softmax(2)), "ms");
            report.metric(
                "tensor.mb_moved.softmax",
                2.0 * (b * n * n) as f64 * 4.0 / MB,
                "MB",
            );
        }
    });
}
