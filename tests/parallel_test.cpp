// Tier-1 coverage for the deterministic thread pool and the GEMM-backed
// convolution backend:
//   * thread-pool semantics (disjoint coverage, deterministic reductions,
//     nested regions run inline, set_threads override),
//   * Conv2D / DepthwiseConv2D GEMM lowering vs a naive direct-loop oracle
//     on random shapes, forward AND backward,
//   * the determinism regression: training the same model at 1 and 4 threads
//     must produce bit-identical weights and predictions.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "ml/conv.hpp"
#include "ml/models.hpp"
#include "ml/tensor.hpp"
#include "ml/trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sb {
namespace {

using ml::Tensor;

// Restores the default thread count even if an assertion fails mid-test.
struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) { util::ThreadPool::set_threads(n); }
  ~ThreadCountGuard() { util::ThreadPool::set_threads(0); }
};

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kN = 4097;  // not a multiple of any grain
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRangesCoverDisjointly) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for_ranges(
      kN,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, kN);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      64);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelSumIsBitIdenticalAcrossThreadCounts) {
  // Values of very different magnitude make the sum sensitive to any change
  // in association order, so bit-equality is a strong check.
  constexpr std::size_t kN = 10007;
  constexpr std::size_t kGrain = 128;
  auto body = [](std::size_t begin, std::size_t end) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double x = static_cast<double>(i);
      s += std::sin(x * 1.7) * std::exp2(static_cast<double>(i % 40) - 20.0);
    }
    return s;
  };
  std::vector<double> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{7}}) {
    ThreadCountGuard guard{threads};
    results.push_back(util::parallel_sum(kN, kGrain, body));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(std::memcmp(&results[0], &results[i], sizeof(double)), 0)
        << "thread-count run " << i << " diverged: " << results[0] << " vs "
        << results[i];
  }
}

TEST(ThreadPoolTest, NestedParallelRegionsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard{4};
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> counts(kOuter);
  util::parallel_for(
      kOuter,
      [&](std::size_t i) {
        EXPECT_TRUE(util::ThreadPool::in_parallel_region());
        // The nested loop must run inline on this worker — completing at all
        // (no deadlock) and summing correctly proves it.
        util::parallel_for(
            kInner, [&](std::size_t) { counts[i].fetch_add(1); }, 10);
      },
      1);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  for (std::size_t i = 0; i < kOuter; ++i) EXPECT_EQ(counts[i].load(), kInner);
}

TEST(ThreadPoolTest, SetThreadsOverridesAndRestores) {
  const std::size_t fallback = util::ThreadPool::threads();
  EXPECT_GE(fallback, 1u);
  {
    ThreadCountGuard guard{3};
    EXPECT_EQ(util::ThreadPool::threads(), 3u);
  }
  EXPECT_EQ(util::ThreadPool::threads(), fallback);
}

// ---------------------------------------------------------------------------
// GEMM-lowered convolutions vs a naive direct-loop oracle.

Tensor random_tensor(ml::Shape shape, Rng& rng) {
  Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void expect_close(const Tensor& a, const Tensor& b, double tol,
                  const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(static_cast<double>(a[i])));
    ASSERT_NEAR(a[i], b[i], tol * scale) << what << " at flat index " << i;
  }
}

struct ConvCase {
  std::size_t n, in_c, out_c, k, stride, pad, h, w;
};

// Naive direct-loop convolution oracle, built from a layer's params()
// (weight [outC, inC/groups, k, k], bias [outC]).  A depthwise conv is the
// grouped case with one input channel per output channel.
struct ConvGeometry {
  std::size_t k, stride, pad;
  bool depthwise;
};

struct NaiveConvGrads {
  Tensor grad_in, grad_w, grad_b;
};

// Calls f(weight index, input index, output index) for every in-bounds
// multiply of the convolution y = conv(x, w).
template <typename F>
void for_each_tap(const Tensor& x, std::size_t out_c, std::size_t oh,
                  std::size_t ow, const ConvGeometry& g, F&& f) {
  const std::size_t n = x.dim(0), in_c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t group_in = g.depthwise ? 1 : in_c;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t oc = 0; oc < out_c; ++oc)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox)
          for (std::size_t j = 0; j < group_in; ++j) {
            const std::size_t ic = g.depthwise ? oc : j;
            for (std::size_t ky = 0; ky < g.k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                  static_cast<std::ptrdiff_t>(g.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < g.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                    static_cast<std::ptrdiff_t>(g.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                f(((oc * group_in + j) * g.k + ky) * g.k + kx,
                  ((i * in_c + ic) * h + static_cast<std::size_t>(iy)) * w +
                      static_cast<std::size_t>(ix),
                  ((i * out_c + oc) * oh + oy) * ow + ox);
              }
            }
          }
}

std::size_t conv_out(std::size_t in, const ConvGeometry& g) {
  return (in + 2 * g.pad - g.k) / g.stride + 1;
}

Tensor naive_conv_forward(const Tensor& x, const Tensor& weight,
                          const Tensor& bias, const ConvGeometry& g) {
  const std::size_t out_c = bias.numel();
  const std::size_t oh = conv_out(x.dim(2), g), ow = conv_out(x.dim(3), g);
  Tensor y{{x.dim(0), out_c, oh, ow}};
  for (std::size_t idx = 0; idx < y.numel(); ++idx)
    y[idx] = bias[(idx / (oh * ow)) % out_c];
  for_each_tap(x, out_c, oh, ow, g,
               [&](std::size_t wi, std::size_t xi, std::size_t yi) {
                 y[yi] += weight[wi] * x[xi];
               });
  return y;
}

NaiveConvGrads naive_conv_backward(const Tensor& x, const Tensor& weight,
                                   const Tensor& grad_out,
                                   const ConvGeometry& g) {
  const std::size_t out_c = grad_out.dim(1);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  NaiveConvGrads out{Tensor{x.shape()}, Tensor{weight.shape()},
                     Tensor{{out_c}}};
  for (std::size_t idx = 0; idx < grad_out.numel(); ++idx)
    out.grad_b[(idx / (oh * ow)) % out_c] += grad_out[idx];
  for_each_tap(x, out_c, oh, ow, g,
               [&](std::size_t wi, std::size_t xi, std::size_t yi) {
                 out.grad_w[wi] += grad_out[yi] * x[xi];
                 out.grad_in[xi] += grad_out[yi] * weight[wi];
               });
  return out;
}

// Runs forward + backward through the GEMM-lowered `layer` and the naive
// oracle on identical inputs and compares outputs, input gradients and
// param gradients.
void compare_to_oracle(ml::Layer& layer, const ConvGeometry& g,
                       const Tensor& x, Rng& grad_rng,
                       const std::string& what) {
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  const Tensor& weight = params[0]->value;
  const Tensor& bias = params[1]->value;

  const Tensor y = layer.forward(x, true);
  expect_close(y, naive_conv_forward(x, weight, bias, g), 1e-5,
               what + " forward");

  Tensor grad_out{y.shape()};
  for (auto& v : grad_out.flat()) v = static_cast<float>(grad_rng.normal(0.0, 1.0));
  for (ml::Param* p : params) p->zero_grad();
  const Tensor gx = layer.backward(grad_out);
  const NaiveConvGrads want = naive_conv_backward(x, weight, grad_out, g);
  expect_close(gx, want.grad_in, 1e-4, what + " grad_in");
  expect_close(params[0]->grad, want.grad_w, 1e-4, what + " param grad 0");
  expect_close(params[1]->grad, want.grad_b, 1e-4, what + " param grad 1");
}

TEST(ConvBackendTest, Conv2DGemmMatchesReference) {
  const ConvCase cases[] = {
      {2, 3, 8, 3, 1, 1, 9, 11},   // same-padded 3x3
      {3, 4, 6, 5, 2, 2, 12, 10},  // strided 5x5
      {2, 1, 4, 3, 2, 0, 8, 8},    // no padding, stride 2
      {1, 5, 7, 1, 1, 0, 6, 6},    // pointwise 1x1
  };
  std::uint64_t seed = 100;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "k=" << c.k << " stride=" << c.stride
                                      << " pad=" << c.pad);
    Rng init{seed};
    ml::Conv2D layer{c.in_c, c.out_c, c.k, c.stride, c.pad, init};
    Rng data_rng{seed + 1};
    const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
    compare_to_oracle(layer, {c.k, c.stride, c.pad, false}, x, data_rng,
                      "Conv2D");
    seed += 10;
  }
}

TEST(ConvBackendTest, DepthwiseConv2DGemmMatchesReference) {
  const ConvCase cases[] = {
      {2, 6, 6, 3, 1, 1, 10, 9},  // same-padded 3x3
      {3, 4, 4, 3, 2, 1, 11, 7},  // strided
      {1, 8, 8, 5, 1, 2, 9, 9},   // 5x5
  };
  std::uint64_t seed = 500;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "c=" << c.in_c << " k=" << c.k
                                      << " stride=" << c.stride);
    Rng init{seed};
    ml::DepthwiseConv2D layer{c.in_c, c.k, c.stride, c.pad, init};
    Rng data_rng{seed + 1};
    const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
    compare_to_oracle(layer, {c.k, c.stride, c.pad, true}, x, data_rng,
                      "DepthwiseConv2D");
    seed += 10;
  }
}

TEST(ConvBackendTest, GemmBackendStaysParallelSafe) {
  // Same comparison with a multi-thread pool active: chunking must not change
  // the GEMM results (the oracle is serial either way).
  ThreadCountGuard guard{4};
  Rng init{42};
  ml::Conv2D layer{4, 8, 3, 1, 1, init};
  Rng data_rng{43};
  const Tensor x = random_tensor({4, 4, 12, 12}, data_rng);
  compare_to_oracle(layer, {3, 1, 1, false}, x, data_rng, "Conv2D(4 threads)");
}

// ---------------------------------------------------------------------------
// Determinism regression: thread count must not change training results.

// Trains a small model end to end and returns every learned weight followed
// by the model's predictions on a fixed probe batch.  shard_grain/replicas
// map straight onto TrainConfig (grain 4 over batch 8 = two shards per
// batch, so the replicated engine and its reductions actually run).
std::vector<float> train_and_fingerprint(ml::ModelKind kind, std::size_t threads,
                                         std::size_t shard_grain = 4,
                                         std::size_t replicas = 0) {
  ThreadCountGuard guard{threads};
  const ml::ModelInputShape shape{.channels = 2, .height = 8, .width = 12};
  Rng model_rng{900};
  auto model = ml::make_model(kind, shape, 3, model_rng);

  Rng data_rng{901};
  ml::RegressionDataset data;
  data.x = random_tensor({24, shape.channels, shape.height, shape.width}, data_rng);
  data.y = random_tensor({24, 3}, data_rng);
  Rng split_rng{902};
  auto [train, val] = ml::split_dataset(data, 0.25, split_rng);

  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.eval_batch_size = 8;
  cfg.shard_grain = shard_grain;
  cfg.replicas = replicas;
  ml::train_regressor(*model, train, val, cfg);

  std::vector<float> fingerprint;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) fingerprint.push_back(v);
  Rng probe_rng{903};
  const Tensor probe =
      random_tensor({5, shape.channels, shape.height, shape.width}, probe_rng);
  const Tensor pred = model->forward(probe, false);
  for (float v : pred.flat()) fingerprint.push_back(v);
  return fingerprint;
}

void expect_same_fingerprint(const std::vector<float>& a,
                             const std::vector<float>& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  // memcmp: float equality would pass -0.0 vs 0.0 and miss NaN divergence.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

class DeterminismTest : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(DeterminismTest, TrainingIsBitIdenticalAcrossThreadCounts) {
  const auto serial = train_and_fingerprint(GetParam(), 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto parallel = train_and_fingerprint(GetParam(), threads);
    expect_same_fingerprint(serial, parallel,
                            "training " + ml::to_string(GetParam()) +
                                " diverged between 1 and " +
                                std::to_string(threads) + " threads");
  }
}

TEST_P(DeterminismTest, TrainingIsBitIdenticalAcrossReplicaCounts) {
  // Grain 2 over batch 8 = four shards; replica counts below the shard
  // count force checkout contention, above it leave replicas idle — neither
  // may change the trained weights.
  const auto reference = train_and_fingerprint(GetParam(), 4, 2, 1);
  for (const std::size_t replicas : {std::size_t{2}, std::size_t{3}, std::size_t{0}}) {
    const auto run = train_and_fingerprint(GetParam(), 4, 2, replicas);
    expect_same_fingerprint(reference, run,
                            "training " + ml::to_string(GetParam()) +
                                " diverged at replica count " +
                                std::to_string(replicas));
  }
}

TEST_P(DeterminismTest, SingleShardShardedTrainingMatchesSerialLoop) {
  // One shard per batch (grain >= batch) must reproduce the serial
  // fallback's floating-point results bitwise: same loss scale, same
  // gradient association, same BatchNorm running-stat updates.
  const auto serial = train_and_fingerprint(GetParam(), 4, /*shard_grain=*/0);
  const auto sharded = train_and_fingerprint(GetParam(), 4, /*shard_grain=*/8);
  expect_same_fingerprint(serial, sharded,
                          "single-shard training of " +
                              ml::to_string(GetParam()) +
                              " diverged from the serial loop");
}

INSTANTIATE_TEST_SUITE_P(Models, DeterminismTest,
                         ::testing::Values(ml::ModelKind::kMlp,
                                           ml::ModelKind::kMobileNetLite),
                         [](const auto& info) {
                           return ml::to_string(info.param);
                         });

}  // namespace
}  // namespace sb
