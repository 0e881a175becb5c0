//! Graph machinery inside the model: static transition constants, the
//! self-adaptive transition matrix (Eq. 7), and the dynamic graph learner
//! (Eqs. 13–14).

use crate::embeddings::SharedEmbeddings;
use d2stgnn_graph::{transition, SparseNetwork, TrafficNetwork};
use d2stgnn_tensor::nn::{Linear, Mlp, Module};
use d2stgnn_tensor::{Array, SparseMatrix, Tensor};
use rand::Rng;

/// The transition matrices handed to the diffusion block for one forward
/// pass. The model routes static road-network transitions through CSR
/// ([`Transitions::Sparse`]) at every graph size; dynamic ones carry a batch
/// axis `[B, N, N]` (one graph per window, static *within* the window as
/// the paper assumes) and are always dense — they are batch-varying
/// products of a softmax attention mask, dense by construction, and
/// gradients must flow through them.
pub enum Transitions {
    /// Road-network transitions as dense `[N, N]` tensors. The model never
    /// builds this variant: it is the dense reference the sparse path is
    /// checked against bit-for-bit.
    Static {
        /// Forward transition `P_f`.
        p_f: Tensor,
        /// Backward transition `P_b`.
        p_b: Tensor,
    },
    /// Road-network transitions shared by every sample, stored sparsely:
    /// the one static diffusion path (constant matrices, no gradients
    /// needed), O(nnz) per step instead of O(N²).
    Sparse {
        /// Forward transition `P_f` as CSR.
        p_f: SparseMatrix,
        /// Backward transition `P_b` as CSR.
        p_b: SparseMatrix,
    },
    /// Learned per-window transitions `P^{dy}` (Eq. 14).
    Dynamic {
        /// Forward dynamic transition `[B, N, N]`.
        p_f: Tensor,
        /// Backward dynamic transition `[B, N, N]`.
        p_b: Tensor,
    },
}

/// Dense precomputed constants, needed only by the dynamic graph learner
/// and the adaptive matrix.
struct DenseContext {
    /// `P_f` as a constant tensor `[N, N]`.
    p_f: Tensor,
    /// `P_b` as a constant tensor `[N, N]`.
    p_b: Tensor,
    /// `(1 - I)` diagonal mask `[N, N]`.
    diag_mask: Tensor,
}

/// Precomputed constants derived from the road network.
///
/// Always holds the static transitions as CSR — the representation the
/// diffusion block runs on at every graph size. Contexts built from a
/// [`TrafficNetwork`] additionally keep dense `[N, N]` copies of the *same
/// values* plus the diagonal mask, which only the dynamic graph learner and
/// the adaptive matrix consume. City-scale contexts built with
/// [`GraphContext::from_sparse`] are sparse-only and never materialize an
/// `[N, N]` tensor.
pub struct GraphContext {
    dense: Option<DenseContext>,
    sparse: (SparseMatrix, SparseMatrix),
    n: usize,
}

impl GraphContext {
    /// Build from a traffic network: CSR transitions for the diffusion
    /// block plus the dense copies the dynamic graph learner needs.
    pub fn new(network: &TrafficNetwork) -> Self {
        let adj = network.adjacency();
        let n = network.num_nodes();
        let mut mask = Array::ones(&[n, n]);
        // Diagonal entries sit every `n + 1` elements of the row-major data.
        for v in mask.data_mut().iter_mut().step_by(n + 1) {
            *v = 0.0;
        }
        let p_f = transition::forward_transition(&adj);
        let p_b = transition::backward_transition(&adj);
        // The CSR copies hold the *exact same values* as the dense tensors,
        // so either path produces bit-identical diffusion results; see
        // `d2stgnn_tensor::sparse` for the zero-skip argument.
        let c_f = crate::error::require(
            SparseMatrix::from_dense(&p_f, 0.0),
            "row-normalized transitions are finite",
        );
        let c_b = crate::error::require(
            SparseMatrix::from_dense(&p_b, 0.0),
            "row-normalized transitions are finite",
        );
        Self {
            dense: Some(DenseContext {
                p_f: Tensor::constant(p_f),
                p_b: Tensor::constant(p_b),
                diag_mask: Tensor::constant(mask),
            }),
            sparse: (c_f, c_b),
            n,
        }
    }

    /// Build a sparse-only context from a city-scale network: transitions
    /// are row-normalized in CSR form and no dense `[N, N]` tensor is ever
    /// materialized (at 100k nodes that would be 40 GB). Model features
    /// that need dense matrices (dynamic graph learner, adaptive matrix)
    /// are unavailable with such a context.
    pub fn from_sparse(network: &SparseNetwork) -> Self {
        Self {
            dense: None,
            sparse: (network.forward_transition(), network.backward_transition()),
            n: network.num_nodes(),
        }
    }

    /// Dense `P_f` `[N, N]`.
    ///
    /// # Panics
    /// On a sparse-only context (programming error: callers needing dense
    /// tensors must not be wired to city-scale contexts).
    pub fn p_f(&self) -> &Tensor {
        &self.dense().p_f
    }

    /// Dense `P_b` `[N, N]`. Panics on a sparse-only context like
    /// [`GraphContext::p_f`].
    pub fn p_b(&self) -> &Tensor {
        &self.dense().p_b
    }

    /// `(1 - I)` diagonal mask `[N, N]`. Panics on a sparse-only context
    /// like [`GraphContext::p_f`].
    pub fn diag_mask(&self) -> &Tensor {
        &self.dense().diag_mask
    }

    fn dense(&self) -> &DenseContext {
        match &self.dense {
            Some(d) => d,
            None => crate::error::violation(
                "dense transition tensors are unavailable in a sparse-only GraphContext",
            ),
        }
    }

    /// The CSR transitions `(P_f, P_b)`.
    ///
    /// Always `Some`: every context carries CSR transitions, and static
    /// diffusion runs on them at every graph size. The `Option` is kept so
    /// callers written when the CSR copy was conditional still compile.
    pub fn sparse_transitions(&self) -> Option<(&SparseMatrix, &SparseMatrix)> {
        Some(self.csr_transitions())
    }

    /// The CSR transitions `(P_f, P_b)` the model diffuses through.
    pub(crate) fn csr_transitions(&self) -> (&SparseMatrix, &SparseMatrix) {
        let (f, b) = &self.sparse;
        (f, b)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

/// Self-adaptive transition matrix (Eq. 7):
/// `P_apt = Softmax(σ(E^d (E^u)ᵀ))`, row-normalized over the last axis.
/// Recomputed every forward pass so gradients reach the node embeddings.
pub fn adaptive_transition(emb: &SharedEmbeddings) -> Tensor {
    emb.e_d().matmul(&emb.e_u().transpose()).relu().softmax(1)
}

/// Dynamic graph learner (Section 5.3).
///
/// Builds per-window dynamic feature matrices `DF^u_t`/`DF^d_t` (Eq. 13) from
/// the window's latent signal, the time embeddings of its last step, and the
/// static node embeddings, then masks the static transitions with a
/// self-attention score matrix (Eq. 14).
pub struct DynamicGraphLearner {
    feature_fc: Mlp,
    wq: Linear,
    wk: Linear,
    emb_dim: usize,
    hidden: usize,
}

impl DynamicGraphLearner {
    /// `th * d_in` is the flattened per-node window width fed to `FC(·)`.
    pub fn new<R: Rng>(th: usize, d_in: usize, emb_dim: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            feature_fc: Mlp::new(th * d_in, hidden, emb_dim, rng),
            wq: Linear::new(4 * emb_dim, hidden, false, rng),
            wk: Linear::new(4 * emb_dim, hidden, false, rng),
            emb_dim,
            hidden,
        }
    }

    /// Compute `(P^{dy}_f, P^{dy}_b)`, each `[B, N, N]`.
    ///
    /// * `x0` — the window's latent signal `[B, T_h, N, d]`.
    /// * `tod_last`/`dow_last` — the time slots of each window's last input
    ///   step (the paper treats `P^{dy}` as constant within the window).
    pub fn forward(
        &self,
        ctx: &GraphContext,
        emb: &SharedEmbeddings,
        x0: &Tensor,
        tod_last: &[usize],
        dow_last: &[usize],
    ) -> (Tensor, Tensor) {
        let shape = x0.shape();
        let (b, th, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(n, ctx.num_nodes(), "node count mismatch");
        assert_eq!(tod_last.len(), b, "need one tod per window");
        assert_eq!(dow_last.len(), b, "need one dow per window");
        let e = self.emb_dim;

        // FC(‖_c X_c): per-node flattened history -> [B, N, emb].
        let hist = x0.permute(&[0, 2, 1, 3]).reshape(&[b, n, th * d]);
        let feat = self.feature_fc.forward(&hist);

        let t_d = emb
            .tod_rows(tod_last)
            .reshape(&[b, 1, e])
            .broadcast_to(&[b, n, e]);
        let t_w = emb
            .dow_rows(dow_last)
            .reshape(&[b, 1, e])
            .broadcast_to(&[b, n, e]);
        let e_u = emb.e_u().reshape(&[1, n, e]).broadcast_to(&[b, n, e]);
        let e_d = emb.e_d().reshape(&[1, n, e]).broadcast_to(&[b, n, e]);

        let df_u = Tensor::concat(&[&feat, &t_d, &t_w, &e_u], 2); // [B, N, 4e]
        let df_d = Tensor::concat(&[&feat, &t_d, &t_w, &e_d], 2);

        let scale = 1.0 / (self.hidden as f32).sqrt();
        let mask_from = |df: &Tensor| -> Tensor {
            let q = self.wq.forward(df); // [B, N, h]
            let k = self.wk.forward(df);
            q.matmul(&k.transpose()).scale(scale).softmax(2)
        };
        let p_f_dy = ctx
            .p_f()
            .reshape(&[1, n, n])
            .broadcast_to(&[b, n, n])
            .mul(&mask_from(&df_u));
        let p_b_dy = ctx
            .p_b()
            .reshape(&[1, n, n])
            .broadcast_to(&[b, n, n])
            .mul(&mask_from(&df_d));
        (p_f_dy, p_b_dy)
    }
}

impl Module for DynamicGraphLearner {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.feature_fc.parameters();
        p.extend(self.wq.parameters());
        p.extend(self.wk.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GraphContext, SharedEmbeddings, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let net = TrafficNetwork::random_geometric(8, 3, 0.05, &mut rng);
        let ctx = GraphContext::new(&net);
        let emb = SharedEmbeddings::new(8, 288, 6, &mut rng);
        (ctx, emb, rng)
    }

    #[test]
    fn context_matrices_are_stochastic_and_masked() {
        let (ctx, _, _) = setup();
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &ctx.p_f().value(),
            1e-5
        ));
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &ctx.p_b().value(),
            1e-5
        ));
        let m = ctx.diag_mask().value();
        for i in 0..8 {
            assert_eq!(m.at(&[i, i]), 0.0);
            if i > 0 {
                assert_eq!(m.at(&[i, i - 1]), 1.0);
            }
        }
    }

    #[test]
    fn adaptive_transition_is_row_stochastic_and_differentiable() {
        let (_, emb, _) = setup();
        let p = adaptive_transition(&emb);
        assert_eq!(p.shape(), vec![8, 8]);
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &p.value(),
            1e-4
        ));
        p.sum_all().backward();
        assert!(emb.e_u().grad().is_some());
        assert!(emb.e_d().grad().is_some());
    }

    #[test]
    fn dynamic_graph_shapes_and_support() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Tensor::constant(Array::randn(&[2, 4, 8, 5], &mut rng));
        let (pf, pb) = dg.forward(&ctx, &emb, &x0, &[10, 20], &[0, 3]);
        assert_eq!(pf.shape(), vec![2, 8, 8]);
        assert_eq!(pb.shape(), vec![2, 8, 8]);
        // The dynamic graph only reweights existing edges: zero static weight
        // stays zero.
        let stat = ctx.p_f().value();
        let dyn0 = pf.value();
        for i in 0..8 {
            for j in 0..8 {
                if stat.at(&[i, j]) == 0.0 {
                    assert_eq!(dyn0.at(&[0, i, j]), 0.0, "edge ({i},{j}) appeared");
                }
            }
        }
    }

    #[test]
    fn dynamic_graph_depends_on_signal() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Array::randn(&[1, 4, 8, 5], &mut rng);
        let mut x1 = x0.clone();
        for v in x1.data_mut().iter_mut().take(40) {
            *v += 3.0;
        }
        let (pf0, _) = dg.forward(&ctx, &emb, &Tensor::constant(x0), &[0], &[0]);
        let (pf1, _) = dg.forward(&ctx, &emb, &Tensor::constant(x1), &[0], &[0]);
        assert_ne!(pf0.value().data(), pf1.value().data());
    }

    #[test]
    fn dense_context_carries_bit_identical_csr_transitions() {
        // Even a small, fairly dense graph gets the CSR copies, and they
        // hold the dense values bit-for-bit.
        let (ctx, _, _) = setup();
        let (c_f, c_b) = ctx.sparse_transitions().expect("always present");
        assert_eq!(c_f.to_dense().data(), ctx.p_f().value().data());
        assert_eq!(c_b.to_dense().data(), ctx.p_b().value().data());
    }

    #[test]
    fn sparse_only_context_has_transitions_but_no_dense() {
        let mut rng = StdRng::seed_from_u64(8);
        let city = d2stgnn_graph::SparseNetwork::random_city(300, 4, 0.05, &mut rng);
        let ctx = GraphContext::from_sparse(&city);
        assert_eq!(ctx.num_nodes(), 300);
        let (c_f, c_b) = ctx.sparse_transitions().expect("city context is sparse");
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &c_f.to_dense(),
            1e-5
        ));
        assert_eq!(c_b.shape(), (300, 300));
    }

    #[test]
    #[should_panic(expected = "sparse-only GraphContext")]
    fn sparse_only_context_rejects_dense_accessors() {
        let mut rng = StdRng::seed_from_u64(9);
        let city = d2stgnn_graph::SparseNetwork::random_city(20, 3, 0.05, &mut rng);
        let ctx = GraphContext::from_sparse(&city);
        let _ = ctx.p_f();
    }

    #[test]
    fn dynamic_graph_gradients_flow() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Tensor::parameter(Array::randn(&[2, 4, 8, 5], &mut rng));
        let (pf, pb) = dg.forward(&ctx, &emb, &x0, &[0, 1], &[0, 1]);
        pf.add(&pb).sum_all().backward();
        assert!(x0.grad().is_some());
        for p in dg.parameters() {
            assert!(p.grad().is_some());
        }
    }
}
