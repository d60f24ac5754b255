// Compiled inference plan (DESIGN.md "Inference plan"): an eval-only
// execution program compiled once from a frozen layer graph and replayed on
// every serving forward.
//
// The layer graph is built for training — every forward re-caches inputs
// for backward, materializes a fresh pooled tensor per layer, and runs
// BatchNorm / ReLU as separate full passes.  Serving needs none of that.
// `InferencePlan::compile` walks the graph once (via `Layer::compile`) and
// lowers it to a flat op list over a small register file of scratch
// buffers:
//
//   * weights are packed once at build into the layout the PR 5 GEMM
//     kernels consume directly (Dense [out,in] -> [in,out] panels fed to
//     `matmul_nn`; conv filters flattened to [outC, kdim] rows),
//   * im2col geometry is frozen into a precomputed gather map (index per
//     patch element, -1 = zero padding) instead of per-forward bounds math,
//   * BatchNorm(eval) and ReLU become conv/dense epilogues fused into the
//     producing op's pass over the activations,
//   * layers with no compiled lowering (Lstm, NeuralOdeBlock) fall back to
//     a graph-call op — the plan still runs, those ops just don't speed up.
//
// Precision policy: `PlanPrecision::kF64` is the EXACT plan — its forward
// is bitwise identical to `Layer::forward(x, false)` (pinned by the
// PlanEquivalence tests), because every lowering preserves the graph's
// per-element operation sequence and accumulation order (the kernels are
// float32 throughout; the historical "f64" name means "the reference
// path", not wider arithmetic — see DESIGN.md).  `PlanPrecision::kF32` is
// the folded fast plan: BatchNorm running stats are folded into the
// adjacent conv/dense weights (scale computed in double, rounded to
// float32 once), trading bitwise identity for fewer passes under the
// tolerance harness in ml_test/integration_test.  Serving always runs one
// of the two plans; the raw layer graph is the test oracle only.
//
// Threading/workspace contract: op kernels use util::parallel_for* with
// disjoint writes only (bit-identical at any SB_THREADS); all forward
// temporaries come from util::Scratch, so the serving steady state stays at
// zero heap allocations (ml.workspace.heap_allocs).  Like the layer graph,
// a plan's forward is NOT reentrant with itself or with the graph it wraps.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ml/tensor.hpp"

namespace sb::ml {

class Layer;

enum class PlanPrecision { kF64, kF32 };

const char* to_string(PlanPrecision precision);
// Parses "f64" / "f32" (case-sensitive); false (and `out` untouched) on
// anything else.
bool parse_plan_precision(std::string_view text, PlanPrecision& out);

// Process-wide serving precision: SB_PRECISION env (f64|f32, read once,
// default f64) until overridden by set_plan_precision (e.g. bench --plan).
PlanPrecision plan_precision();
void set_plan_precision(PlanPrecision precision);

// Process-wide totals across every compile() in this process (bench
// provenance: BENCH jsons record them next to the SIMD block).
struct PlanBuildStats {
  std::uint64_t plans_built = 0;
  std::uint64_t folded_batchnorms = 0;  // BN folded into adjacent weights
  std::uint64_t fused_activations = 0;  // BN/ReLU merged into producer ops
  std::uint64_t packed_panels = 0;      // weight tensors repacked at build
};
PlanBuildStats plan_build_stats();

namespace detail {
struct PlanOp;
}  // namespace detail

// Emission interface handed to Layer::compile.  Layers either lower
// themselves through the typed emitters below or return false to opt out
// (Sequential then wraps them in a graph-call op).  See CLAUDE.md: every
// new layer must pick one of the two explicitly.
class PlanBuilder {
 public:
  PlanBuilder(const PlanBuilder&) = delete;
  PlanBuilder& operator=(const PlanBuilder&) = delete;

  PlanPrecision precision() const { return precision_; }
  // Per-item activation dims at the current point ({C,H,W} or {D}).
  const std::vector<std::size_t>& item_shape() const { return shape_; }

  // Typed emitters (each advances item_shape()).
  void conv2d(const Tensor& weight, const Tensor& bias, std::size_t in_c,
              std::size_t out_c, std::size_t k, std::size_t stride,
              std::size_t pad);
  void depthwise(const Tensor& weight, const Tensor& bias, std::size_t c,
                 std::size_t k, std::size_t stride, std::size_t pad);
  void dense(const Tensor& weight, const Tensor& bias, std::size_t in_dim,
             std::size_t out_dim);
  void batchnorm(const Tensor& gamma, const Tensor& beta, const Tensor& mean,
                 const Tensor& var, float eps);
  void relu(float cap);
  void tanh();
  void global_avg_pool();
  void flatten();
  void identity();  // eval-mode no-op (Dropout)
  // Graph-call fallback: runs layer->forward(x, false) through tensor
  // copies.  Output shape is discovered with a one-item dry-run forward.
  void layer_call(Layer* layer);

  // Residual support: a register can be pinned (excluded from reuse while a
  // branch still needs it) and the build cursor moved back to it.
  int current_reg() const { return cur_; }
  void pin(int reg);
  void unpin(int reg);
  void set_current(int reg, const std::vector<std::size_t>& shape);
  // dst = relu(regs[a] + regs[b]), written in place over register `a`.
  void add_relu(int a, int b);

 private:
  friend class InferencePlan;
  explicit PlanBuilder(std::vector<std::size_t> input_shape,
                       PlanPrecision precision);
  ~PlanBuilder();

  detail::PlanOp* last_op();
  int alloc_reg(std::size_t numel);
  void touch_reg(int reg, std::size_t numel);
  std::size_t item_numel() const;
  // True when the affine/relu could be merged into the producing op.
  bool try_fuse_affine(const Tensor& gamma, const Tensor& beta,
                       const Tensor& mean, const Tensor& var, float eps);
  bool try_fuse_relu(float cap);

  PlanPrecision precision_;
  std::vector<std::size_t> shape_;
  int cur_ = -1;  // -1 = the plan input
  std::vector<std::size_t> reg_numel_;
  std::vector<bool> reg_pinned_;
  std::vector<detail::PlanOp> ops_;
  PlanBuildStats stats_;
};

class InferencePlan {
 public:
  // Compiles `model` (frozen: eval-mode weights and running stats) for
  // inputs of per-item shape `item_shape`.  Never fails: layers without a
  // lowering run as graph-call ops.  The plan borrows `model` (for
  // fallback ops) and owns packed copies of all compiled weights, so it
  // must be rebuilt after any further training or load.
  static std::unique_ptr<InferencePlan> compile(
      Layer& model, const std::vector<std::size_t>& item_shape,
      PlanPrecision precision);

  ~InferencePlan();

  // Eval forward: x is [N, item_shape...]; returns [N, out...].  Batch rows
  // are processed independently (batched == stacked single-row forwards,
  // bitwise).  Not reentrant.
  Tensor forward(const Tensor& x) const;

  PlanPrecision precision() const { return precision_; }
  std::size_t num_ops() const;
  // Ops that still call back into the layer graph (0 = fully compiled).
  std::size_t graph_fallback_ops() const;
  std::size_t folded_batchnorms() const { return stats_.folded_batchnorms; }
  std::size_t fused_activations() const { return stats_.fused_activations; }
  std::size_t packed_panels() const { return stats_.packed_panels; }

 private:
  InferencePlan() = default;

  PlanPrecision precision_ = PlanPrecision::kF64;
  std::vector<std::size_t> input_shape_;
  std::vector<std::size_t> output_shape_;
  int out_reg_ = -1;
  std::vector<std::size_t> reg_numel_;  // per-item elements per register
  std::vector<detail::PlanOp> ops_;
  PlanBuildStats stats_;
};

}  // namespace sb::ml
