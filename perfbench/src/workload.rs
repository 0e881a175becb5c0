//! The three workloads: their seeded inputs, model configurations and the
//! serving stack each HTTP workload runs against.
//!
//! Everything in this module before [`start_stack`] / [`new_trainer`] is
//! the benchmark's own input generation and is never timed.

use crate::loadgen::forecast_request;
use d2stgnn_baselines::{ClassicalForecaster, HistoricalAverage};
use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{
    simulate, simulate_city, Batch, CityConfig, CityData, DatasetId, Split, StandardScaler,
    WindowedDataset,
};
use d2stgnn_httpd::api::ForecastBody;
use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
use d2stgnn_serve::{
    Forecast, InferRequest, ModelFactory, ModelRegistry, ServeConfig, Server, TraceHandle,
};
use d2stgnn_tensor::losses::masked_mae_loss;
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use d2stgnn_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Input and forecast window length (§6.1: one hour of 5-minute steps).
pub const TH: usize = 12;
/// Forecast horizon.
pub const TF: usize = 12;
/// METR-LA's sensor count.
pub const METR_NODES: usize = 207;
/// City network size, as in the `graph_scale` bench's largest row.
pub const CITY_NODES: usize = 20_000;
/// Open-loop arrival rate on `metr_http`, requests per second: under half
/// the serving capacity of the reference host (12-15 req/s saturated on a
/// 2-vCPU Xeon with avx2), so requests queue now and then without a
/// growing backlog.
pub const METR_RATE: f64 = 5.0;
/// Share of a `metr_http` run spent on the open-loop schedule, which gives
/// the latency. The rest measures capacity: closed loops on the same
/// connections, since the open loop's throughput is only its offered rate.
pub const METR_OPEN_SHARE: f64 = 2.0 / 3.0;
/// Forecasts per throughput block in `metr_http`'s saturation phase:
/// about 0.6 s at the reference host's capacity (~14 forecasts/s), so a
/// 10 s phase gives some 17 blocks to take the median of.
pub const METR_BLOCK: usize = 8;
/// Client connections on `metr_http` (at most `nproc` on the reference host).
pub const METR_CONNECTIONS: usize = 2;
/// Distinct request windows per HTTP workload.
pub const METR_WINDOWS: usize = 16;
/// Distinct request windows on `city_http`; each reference forecast costs
/// a full-city forward, so keep the set small.
pub const CITY_WINDOWS: usize = 2;
/// Training batch size on `metr_train`.
pub const TRAIN_BATCH: usize = 4;
/// Seed of every model's initial weights; the workload seed only drives
/// the inputs.
const MODEL_SEED: u64 = 17;
/// Gradient clipping norm, the trainer's default.
const CLIP_NORM: f32 = 5.0;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's model on METR-LA shape behind HTTP, open loop.
    MetrHttp,
    /// The static-graph model on a 20k-node city behind HTTP, closed loop.
    CityHttp,
    /// Training steps of the paper's model on METR-LA shape.
    MetrTrain,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "metr_http" => Some(Workload::MetrHttp),
            "city_http" => Some(Workload::CityHttp),
            "metr_train" => Some(Workload::MetrTrain),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetrHttp => "metr_http",
            Workload::CityHttp => "city_http",
            Workload::MetrTrain => "metr_train",
        }
    }
}

/// The workload's fixed settings, recorded next to every result.
#[derive(Serialize)]
pub struct WorkloadConfig {
    nodes: usize,
    hidden: usize,
    layers: usize,
    heads: usize,
    dynamic_graph: bool,
    batch: usize,
    load: &'static str,
    rate_per_s: f64,
    connections: usize,
    windows: usize,
    serve_workers: usize,
    max_batch: usize,
    pool_threads: usize,
    simd_kernel: &'static str,
}

impl Workload {
    /// This workload's fixed settings.
    pub fn config(self) -> WorkloadConfig {
        let (cfg, load, rate, connections, windows, batch) = match self {
            Workload::MetrHttp => (
                metr_config(),
                "open",
                METR_RATE,
                METR_CONNECTIONS,
                METR_WINDOWS,
                1,
            ),
            Workload::CityHttp => (city_config(288), "closed", 0.0, 1, CITY_WINDOWS, 1),
            Workload::MetrTrain => (metr_config(), "steps", 0.0, 0, 0, TRAIN_BATCH),
        };
        let serve = match self {
            Workload::MetrHttp => ServeConfig::default(),
            Workload::CityHttp => city_serve_config(),
            Workload::MetrTrain => ServeConfig {
                workers: 0,
                max_batch: 0,
                ..ServeConfig::default()
            },
        };
        WorkloadConfig {
            nodes: cfg.num_nodes,
            hidden: cfg.hidden,
            layers: cfg.layers,
            heads: cfg.heads,
            dynamic_graph: cfg.use_dynamic_graph,
            batch,
            load,
            rate_per_s: rate,
            connections,
            windows,
            serve_workers: serve.workers,
            max_batch: serve.max_batch,
            pool_threads: d2stgnn_tensor::pool::threads(),
            simd_kernel: d2stgnn_tensor::simd::kernel_name(),
        }
    }
}

/// The paper's configuration (§6.1) for METR-LA: d = 32, two layers, four
/// heads, dynamic graph and self-adaptive matrix on.
pub fn metr_config() -> D2stgnnConfig {
    D2stgnnConfig::new(METR_NODES)
}

/// The static-graph D²STGNN† the `graph_scale` bench runs at city scale:
/// hidden 8, one layer, CSR transitions end to end.
pub fn city_config(steps_per_day: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(CITY_NODES);
    cfg.hidden = 8;
    cfg.emb_dim = 4;
    cfg.layers = 1;
    cfg.heads = 2;
    cfg.th = TH;
    cfg.tf = TF;
    cfg.kt = 2;
    cfg.steps_per_day = steps_per_day;
    cfg.dropout = 0.0;
    cfg.use_dynamic_graph = false;
    cfg.use_adaptive = false;
    cfg
}

/// One week of METR-LA-shaped traffic (207 sensors, 9-NN road graph).
pub fn metr_data(seed: u64) -> WindowedDataset {
    let mut sim = DatasetId::MetrLa.full();
    sim.num_steps = 7 * sim.steps_per_day;
    sim.seed = seed;
    WindowedDataset::new(simulate(&sim), TH, TF, DatasetId::MetrLa.split_fractions())
}

/// A 20k-sensor city with just enough steps for its request windows.
pub fn city_data(seed: u64) -> CityData {
    let mut sim = CityConfig::with_nodes(CITY_NODES);
    sim.num_steps = TH + TF + CITY_WINDOWS;
    sim.seed = seed;
    simulate_city(&sim)
}

/// One raw-scale input window with its clock features.
#[derive(Clone)]
pub struct Window {
    /// `values[t][n]`, raw scale.
    pub values: Vec<Vec<f32>>,
    /// Time-of-day slot per step.
    pub tod: Vec<usize>,
    /// Day-of-week per step.
    pub dow: Vec<usize>,
}

impl Window {
    fn slice(
        values: &Array,
        start: usize,
        tod: impl Fn(usize) -> usize,
        dow: impl Fn(usize) -> usize,
    ) -> Window {
        let n = values.shape()[1];
        let data = values.data();
        Window {
            values: (start..start + TH)
                .map(|t| data[t * n..(t + 1) * n].to_vec())
                .collect(),
            tod: (start..start + TH).map(&tod).collect(),
            dow: (start..start + TH).map(&dow).collect(),
        }
    }

    /// The `POST /v1/forecast` JSON body for `model`.
    pub fn body(&self, model: &str) -> ForecastBody {
        ForecastBody {
            model: model.to_string(),
            window: self.values.clone(),
            tod: self.tod.clone(),
            dow: self.dow.clone(),
            deadline_ms: None,
            sensor: None,
            city: None,
        }
    }

    /// The same window as an in-process serve request.
    pub fn infer_request(&self, model: &str) -> InferRequest {
        let n = self.values[0].len();
        let flat: Vec<f32> = self.values.iter().flatten().copied().collect();
        InferRequest {
            model: model.to_string(),
            window: Array::from_vec(&[TH, n, 1], flat).expect("window is [T_h, N]"),
            tod: self.tod.clone(),
            dow: self.dow.clone(),
            deadline: None,
            trace: TraceHandle::inert(),
        }
    }
}

/// Everything an HTTP workload needs to start its serving stack.
pub struct ServeSpec {
    /// Registered model name.
    pub model: &'static str,
    /// Builds a fresh model; the registry calls it once per serve worker.
    pub factory: ModelFactory,
    /// Input normalization.
    pub scaler: StandardScaler,
    /// Sensors.
    pub nodes: usize,
    /// Data the historical-average fallback is fitted on, when registered.
    pub fallback_data: Option<WindowedDataset>,
    /// Serve engine settings.
    pub serve: ServeConfig,
    /// Front-end settings.
    pub httpd: HttpdConfig,
    /// Request windows.
    pub windows: Vec<Window>,
    /// Full HTTP request bytes, one per window.
    pub requests: Vec<Vec<u8>>,
}

/// Front-end settings shared by both HTTP workloads: connections stay
/// open for the whole run.
fn httpd_config() -> HttpdConfig {
    HttpdConfig {
        keep_alive_requests: usize::MAX,
        read_timeout: Duration::from_secs(30),
        ..HttpdConfig::default()
    }
}

/// The `metr_http` stack: default serve settings plus the HA fallback.
pub fn metr_spec(seed: u64) -> ServeSpec {
    let data = metr_data(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut starts = data.window_starts(Split::Test).to_vec();
    starts.shuffle(&mut rng);
    starts.truncate(METR_WINDOWS);
    let raw = data.data();
    let windows: Vec<Window> = starts
        .iter()
        .map(|&s| {
            Window::slice(
                &raw.values,
                s,
                |t| raw.time_of_day(t),
                |t| raw.day_of_week(t),
            )
        })
        .collect();
    let network = raw.network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(MODEL_SEED);
        Box::new(D2stgnn::new(metr_config(), &network, &mut rng)) as Box<dyn TrafficModel>
    });
    spec(
        "d2stgnn-metr",
        factory,
        *data.scaler(),
        METR_NODES,
        Some(data),
        ServeConfig::default(),
        httpd_config(),
        windows,
    )
}

/// The `city_http` stack. One serve worker: the single closed-loop client
/// never has two requests in flight, and each worker builds its own
/// replica of the 20k-node model on first use. The 4.35 MB request body
/// needs a larger body limit than the default 1 MB.
pub fn city_spec(seed: u64) -> ServeSpec {
    let data = city_data(seed);
    let scaler = StandardScaler::fit(data.values.data());
    let windows: Vec<Window> = (0..CITY_WINDOWS)
        .map(|s| {
            Window::slice(
                &data.values,
                s,
                |t| data.time_of_day(t),
                |t| data.day_of_week(t),
            )
        })
        .collect();
    let spd = data.steps_per_day;
    let network = data.network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(MODEL_SEED);
        Box::new(D2stgnn::new_sparse(city_config(spd), &network, &mut rng)) as Box<dyn TrafficModel>
    });
    let mut httpd = httpd_config();
    httpd.limits.max_body_bytes = 16 << 20;
    spec(
        "d2stgnn-city",
        factory,
        scaler,
        CITY_NODES,
        None,
        city_serve_config(),
        httpd,
        windows,
    )
}

fn city_serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn spec(
    model: &'static str,
    factory: ModelFactory,
    scaler: StandardScaler,
    nodes: usize,
    fallback_data: Option<WindowedDataset>,
    serve: ServeConfig,
    httpd: HttpdConfig,
    windows: Vec<Window>,
) -> ServeSpec {
    let requests = windows
        .iter()
        .map(|w| forecast_request(&serde_json::to_string(&w.body(model)).expect("serialize body")))
        .collect();
    ServeSpec {
        model,
        factory,
        scaler,
        nodes,
        fallback_data,
        serve,
        httpd,
        windows,
        requests,
    }
}

/// A running serve engine behind one shard and the HTTP front-end.
pub struct Stack {
    /// The HTTP front-end.
    pub front: HttpServer,
    /// The one serve shard.
    pub server: Arc<Server>,
    router: Arc<ShardRouter>,
}

/// Build and start the stack: model snapshot, registry, serve engine,
/// fallback, router and a bound front-end. This is the set-up a deployment
/// pays before its first reply.
pub fn start_stack(spec: &ServeSpec) -> Stack {
    let model = (spec.factory)();
    let ckpt = checkpoint::snapshot(model.as_ref(), spec.model);
    drop(model);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(
            spec.model,
            Arc::clone(&spec.factory),
            ckpt,
            spec.scaler,
            [TH, spec.nodes],
        )
        .expect("register model");
    let server = Arc::new(Server::start(registry, spec.serve.clone()).expect("start serve engine"));
    if let Some(data) = &spec.fallback_data {
        let mut ha = HistoricalAverage::new();
        ha.fit(data);
        server.set_fallback(ha);
    }
    let router = Arc::new(ShardRouter::new());
    router.add_shard(0, Arc::clone(&server)).expect("add shard");
    let front = HttpServer::bind("127.0.0.1:0", Arc::clone(&router), spec.httpd.clone())
        .expect("bind front-end");
    Stack {
        front,
        server,
        router,
    }
}

impl Stack {
    /// Reference forecasts: each window served alone on the idle engine.
    pub fn references(&self, spec: &ServeSpec) -> Vec<Array> {
        spec.windows
            .iter()
            .map(|w| self.infer(spec, w).values)
            .collect()
    }

    /// One in-process forecast, bypassing HTTP.
    pub fn infer(&self, spec: &ServeSpec, window: &Window) -> Forecast {
        self.server
            .infer(window.infer_request(spec.model))
            .expect("idle engine answers")
    }

    /// Make sure every serve worker holds a model replica, so no replica
    /// is built inside the timed phase: a burst larger than one micro-batch
    /// reaches every worker. With one worker, the set-up's first reply
    /// already built its replica.
    pub fn warm_workers(&self, spec: &ServeSpec) {
        if spec.serve.workers < 2 {
            return;
        }
        let burst = spec.serve.workers * spec.serve.max_batch;
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                let w = &spec.windows[i % spec.windows.len()];
                self.server
                    .submit(w.infer_request(spec.model))
                    .expect("warm-up submit")
            })
            .collect();
        for h in handles {
            h.wait().expect("warm-up forecast");
        }
    }

    /// Stop the front-end, then the engine.
    pub fn shutdown(self) {
        self.front.shutdown().expect("front-end shutdown");
        self.router.remove_shard(0);
        drop(self.router);
        match Arc::try_unwrap(self.server) {
            Ok(server) => server.shutdown().expect("engine shutdown"),
            Err(_) => panic!("serve engine still shared at shutdown"),
        }
    }
}

/// The `metr_train` state: model, optimizer and a fixed batch order.
pub struct Trainer {
    /// The model.
    pub model: D2stgnn,
    params: Vec<Tensor>,
    opt: Adam,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
}

/// Training-window order for a seed: a fixed shuffle of the train split.
pub fn train_order(data: &WindowedDataset, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..data.len(Split::Train)).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0d3a));
    order
}

/// Build model and optimizer: the set-up of a training job.
pub fn new_trainer(data: &WindowedDataset, order: Vec<usize>, seed: u64) -> Trainer {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = D2stgnn::new(metr_config(), &data.data().network, &mut rng);
    let params = model.parameters();
    let opt = Adam::new(params.clone(), 1e-3);
    Trainer {
        model,
        params,
        opt,
        rng: StdRng::seed_from_u64(seed),
        order,
        cursor: 0,
    }
}

impl Trainer {
    /// The next batch's window indices in the fixed order.
    pub fn next_indices(&mut self) -> Vec<usize> {
        let idx = (0..TRAIN_BATCH)
            .map(|k| self.order[(self.cursor + k) % self.order.len()])
            .collect();
        self.cursor = (self.cursor + TRAIN_BATCH) % self.order.len();
        idx
    }

    /// One step: batch assembly, forward, masked MAE on the raw scale,
    /// backward, gradient clipping, Adam. Returns the loss.
    pub fn step(&mut self, data: &WindowedDataset) -> f32 {
        let indices = self.next_indices();
        let batch = data.batch(Split::Train, &indices);
        let loss = self.loss(data.scaler(), &batch);
        let value = loss.item();
        loss.backward();
        self.optimize();
        value
    }

    /// Forward and masked MAE of one batch, with the tape on.
    pub fn loss(&mut self, scaler: &StandardScaler, batch: &Batch) -> Tensor {
        let pred = self.model.forward(batch, true, &mut self.rng);
        let pred = pred.scale(scaler.std()).add_scalar(scaler.mean());
        masked_mae_loss(&pred, &Tensor::constant(batch.y.clone()), 0.0)
    }

    /// Clip, step and clear gradients (the optimizer part of a step).
    pub fn optimize(&mut self) {
        clip_grad_norm(&self.params, CLIP_NORM);
        self.opt.step();
        self.opt.zero_grad();
    }
}
