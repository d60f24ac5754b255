// SIMD backend equivalence and workspace zero-allocation coverage
// (DESIGN.md "Performance architecture"):
//   * vmax/vmin/compare lane semantics vs the scalar operators, including
//     NaN operand-order behaviour,
//   * matmul_nn vector vs scalar backend on ragged shapes (k in {0,1},
//     non-multiple-of-lane N, non-multiple-of-tile M, strided sub-blocks) —
//     bitwise, not approximately,
//   * FFT butterflies across sizes, forward and inverse, and the
//     structure-of-arrays batch kernel against per-transform fft_inplace,
//   * the channel-lane biquad low-pass against per-channel cascades,
//   * elementwise layers (ReLU, BatchNorm, ResidualBlock's post-sum ReLU)
//     fed NaN/infinity/denormal inputs — the vector masks must keep the
//     exact scalar special-value behaviour,
//   * apply_window + the cached_window plan cache,
//   * end-to-end training fingerprints across backend x thread-count,
//   * the steady-state zero-allocation contract of the workspace pool on
//     the prepare_signature -> predict_prepared serving path, and on a
//     scheduler pump serving more sessions than a bucket held blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "core/sensory_mapper.hpp"
#include "core/signature.hpp"
#include "dsp/biquad.hpp"
#include "dsp/features.hpp"
#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/models.hpp"
#include "ml/plan.hpp"
#include "ml/tensor.hpp"
#include "ml/trainer.hpp"
#include "stream/inference_scheduler.hpp"
#include "stream/rca_session.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb {
namespace {

using ml::Tensor;

struct SimdBackendGuard {
  explicit SimdBackendGuard(util::SimdBackend b) : prev_(util::simd_backend()) {
    util::set_simd_backend(b);
  }
  ~SimdBackendGuard() { util::set_simd_backend(prev_); }
  util::SimdBackend prev_;
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) { util::ThreadPool::set_threads(n); }
  ~ThreadCountGuard() { util::ThreadPool::set_threads(0); }
};

// memcmp-based equality: float/double == would pass -0.0 vs 0.0 and miss
// NaN payload divergence; the SIMD contract is BITWISE identity.
template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

// Bitwise equality except that any-NaN matches any-NaN.  When an
// accumulation mixes NaNs with different payloads, WHICH payload survives is
// unspecified: IEEE-754 leaves it open, the compiler may commute scalar
// `a + b`, and x86 returns the first NaN operand — so two scalar builds can
// already disagree.  What IS pinned: the same elements are NaN on both
// backends (a mask that wrongly zeroed a NaN lane would surface as
// 0.0-vs-finite) and every non-NaN element is bit-identical.
void expect_bits_equal_modulo_nan(const std::vector<float>& a,
                                  const std::vector<float>& b,
                                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << " at flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---------------------------------------------------------------------------
// Lane-op semantics.

TEST(SimdOpsTest, MaxMinMatchStdSemanticsIncludingNaN) {
  namespace v = util::simd;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float cases[][2] = {{1.0f, 2.0f}, {2.0f, 1.0f}, {-0.0f, 0.0f},
                            {0.0f, -0.0f}, {nan, 1.0f},  {1.0f, nan},
                            {nan, nan},    {-3.5f, -3.5f}};
  for (const auto& c : cases) {
    float a[v::kFloatLanes], b[v::kFloatLanes];
    float out_max[v::kFloatLanes], out_min[v::kFloatLanes];
    for (std::size_t i = 0; i < v::kFloatLanes; ++i) {
      a[i] = c[0];
      b[i] = c[1];
    }
    v::store(out_max, v::vmax(v::load(a), v::load(b)));
    v::store(out_min, v::vmin(v::load(a), v::load(b)));
    for (std::size_t i = 0; i < v::kFloatLanes; ++i) {
      const float smax = std::max(a[i], b[i]);
      const float smin = std::min(a[i], b[i]);
      EXPECT_EQ(std::memcmp(&out_max[i], &smax, sizeof(float)), 0)
          << "max(" << c[0] << ", " << c[1] << ") lane " << i;
      EXPECT_EQ(std::memcmp(&out_min[i], &smin, sizeof(float)), 0)
          << "min(" << c[0] << ", " << c[1] << ") lane " << i;
    }
  }
}

TEST(SimdOpsTest, BackendToggleRoundTrips) {
  const auto before = util::simd_backend();
  {
    SimdBackendGuard guard{util::SimdBackend::kScalar};
    EXPECT_FALSE(util::simd_enabled());
  }
  EXPECT_EQ(util::simd_backend(), before);
  EXPECT_NE(util::simd_isa_name(), nullptr);
}

// ---------------------------------------------------------------------------
// GEMM.

struct GemmCase {
  std::size_t m, k, n;
  bool accumulate;
};

TEST(SimdGemmTest, MatmulNnBitIdenticalOnRaggedShapes) {
  constexpr std::size_t kLanes = util::simd::kFloatLanes;
  const GemmCase cases[] = {
      {1, 0, 5, false},            // empty K, zero-fill path
      {2, 0, 3, true},             // empty K, accumulate keeps C
      {3, 1, 7, false},            // single-element dot products
      {1, 1, 1, true},             // degenerate everything
      {4, 8, kLanes, false},       // exact tile, exact lane width
      {5, 13, 2 * kLanes + 3, true},   // row remainder + column tail
      {7, 17, kLanes - 1, false},      // all-tail columns
      {13, 5, 1, true},                // single column
      {8, 31, 33, false},              // odd everything
  };
  std::uint64_t seed = 4200;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "m=" << c.m << " k=" << c.k
                                      << " n=" << c.n << " acc=" << c.accumulate);
    Rng rng{seed++};
    std::vector<float> a(std::max<std::size_t>(c.m * c.k, 1));
    std::vector<float> b(std::max<std::size_t>(c.k * c.n, 1));
    std::vector<float> c0(c.m * c.n);
    // Mixed magnitudes make any reassociation visible in the low bits.
    for (auto& v : a)
      v = static_cast<float>(rng.normal(0.0, 1.0) *
                             std::exp2(static_cast<double>(rng.uniform_int(0, 20)) - 10.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));

    auto run = [&](util::SimdBackend backend) {
      SimdBackendGuard guard{backend};
      std::vector<float> out = c0;
      ml::matmul_nn(a.data(), c.k, b.data(), c.n, out.data(), c.n, c.m, c.k,
                    c.n, c.accumulate);
      return out;
    };
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "matmul_nn");
    // Chunked rows must not change anything either.
    ThreadCountGuard threads{4};
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "matmul_nn(4 threads)");
  }
}

TEST(SimdGemmTest, MatmulNnBitIdenticalOnStridedSubBlocks) {
  // Multiply a sub-block of larger matrices: lda/ldb/ldc exceed the logical
  // widths, so the vector kernel's loads/stores must respect the strides.
  constexpr std::size_t m = 5, k = 9, n = 11;
  constexpr std::size_t lda = k + 3, ldb = n + 5, ldc = n + 2;
  Rng rng{777};
  std::vector<float> a(m * lda), b(k * ldb), c0(m * ldc);
  for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));
  auto run = [&](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    std::vector<float> out = c0;
    ml::matmul_nn(a.data(), lda, b.data(), ldb, out.data(), ldc, m, k, n, true);
    return out;
  };
  expect_bits_equal(run(util::SimdBackend::kVector),
                    run(util::SimdBackend::kScalar), "matmul_nn strided");
}

// ---------------------------------------------------------------------------
// FFT.

TEST(SimdFftTest, ForwardAndInverseBitIdenticalAcrossBackends) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}, std::size_t{16}, std::size_t{128},
                        std::size_t{1024}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng{9000 + n};
    std::vector<std::complex<double>> data(n);
    for (auto& z : data) z = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};

    auto run = [&](util::SimdBackend backend, bool inverse) {
      SimdBackendGuard guard{backend};
      auto copy = data;
      inverse ? dsp::ifft(copy) : dsp::fft(copy);
      // Compare raw doubles, not complex (operator== would miss -0.0/NaN).
      std::vector<double> flat(2 * n);
      std::memcpy(flat.data(), copy.data(), flat.size() * sizeof(double));
      return flat;
    };
    expect_bits_equal(run(util::SimdBackend::kVector, false),
                      run(util::SimdBackend::kScalar, false), "fft");
    expect_bits_equal(run(util::SimdBackend::kVector, true),
                      run(util::SimdBackend::kScalar, true), "ifft");
  }
}

TEST(SimdFftTest, F32ForwardBitIdenticalAcrossBackends) {
  for (std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{64},
                        std::size_t{1024}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng{9100 + n};
    std::vector<std::complex<float>> data(n);
    for (auto& z : data)
      z = {static_cast<float>(rng.normal(0.0, 1.0)),
           static_cast<float>(rng.normal(0.0, 1.0))};

    auto run = [&](util::SimdBackend backend) {
      SimdBackendGuard guard{backend};
      auto copy = data;
      dsp::fft_inplace_f32(copy);
      std::vector<float> flat(2 * n);
      std::memcpy(flat.data(), copy.data(), flat.size() * sizeof(float));
      return flat;
    };
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "fft_f32");
  }
}

// The structure-of-arrays batch kernel: every transform of the batch must be
// bitwise fft_inplace of the same input, on both backends, for batch widths
// that fill whole vectors, leave a scalar tail, or hold a single transform.
TEST(SimdFftTest, BatchKernelMatchesPerTransformFftBitwise) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{64}, std::size_t{1024}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " batch=" << batch);
      Rng rng{9200 + 16 * n + batch};
      std::vector<std::vector<std::complex<double>>> inputs(batch);
      for (auto& x : inputs) {
        x.resize(n);
        for (auto& z : x) z = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
      }
      // Special values in the first transform's first samples.
      if (n >= 4) {
        inputs[0][1] = {std::numeric_limits<double>::infinity(), 0.0};
        inputs[0][2] = {-0.0, -std::numeric_limits<double>::infinity()};
        inputs[0][3] = {std::numeric_limits<double>::denorm_min(), -0.0};
      }
      for (const auto backend :
           {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
        SimdBackendGuard guard{backend};
        const auto rev = dsp::fft_bit_reversal(n);
        std::vector<double> re(n * batch), im(n * batch);
        for (std::size_t k = 0; k < n; ++k)
          for (std::size_t b = 0; b < batch; ++b) {
            re[k * batch + b] = inputs[b][rev[k]].real();
            im[k * batch + b] = inputs[b][rev[k]].imag();
          }
        dsp::fft_batch_bitreversed(re, im, n, batch);
        for (std::size_t b = 0; b < batch; ++b) {
          auto expected = inputs[b];
          dsp::fft_inplace(expected);
          std::vector<double> want(2 * n), got(2 * n);
          for (std::size_t k = 0; k < n; ++k) {
            want[2 * k] = expected[k].real();
            want[2 * k + 1] = expected[k].imag();
            got[2 * k] = re[k * batch + b];
            got[2 * k + 1] = im[k * batch + b];
          }
          expect_bits_equal(got, want, "batched fft");
        }
      }
    }
  }
  std::vector<double> re(12), im(12);
  EXPECT_THROW(dsp::fft_batch_bitreversed(re, im, 6, 2), std::invalid_argument);
  EXPECT_THROW(dsp::fft_batch_bitreversed(re, im, 8, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Biquad low-pass with channels in lanes.

TEST(SimdBiquadTest, ChannelLaneLowPassMatchesPerChannelCascadeBitwise) {
  constexpr double kFs = 16000.0;
  const dsp::Biquad section = dsp::Biquad::low_pass(dsp::kPipelineCutoffHz, kFs);
  // 4 channels fill one lane block; 1, 3, 5 and 6 leave unused lanes and
  // span a second block.
  for (std::size_t channels : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                               std::size_t{5}, std::size_t{6}}) {
    for (int sections : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "channels=" << channels << " sections=" << sections);
      Rng rng{9300 + channels};
      const std::size_t n = 777;
      std::vector<std::vector<double>> in(channels, std::vector<double>(n));
      for (auto& ch : in)
        for (auto& x : ch) x = rng.normal(0.0, 0.5);
      // Infinities (whose inf - inf makes the default NaN) and an input NaN
      // go to different channels: a recurrence mixing two NaN payloads is
      // the documented multi-NaN boundary, where scalar builds may differ.
      in[channels - 1][50] = std::numeric_limits<double>::infinity();
      in[channels - 1][60] = -std::numeric_limits<double>::infinity();
      if (channels > 1) in[0][100] = std::numeric_limits<double>::quiet_NaN();
      if (channels > 2) std::fill(in[1].begin(), in[1].end(), 0.0);

      std::vector<std::vector<double>> want(channels, std::vector<double>(n));
      for (std::size_t c = 0; c < channels; ++c) {
        auto cascade = dsp::BiquadCascade::low_pass(dsp::kPipelineCutoffHz, kFs,
                                                    sections);
        cascade.process_into(in[c], want[c]);
      }
      for (const auto backend :
           {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
        SimdBackendGuard guard{backend};
        std::vector<std::vector<double>> got(channels, std::vector<double>(n));
        std::vector<std::span<const double>> in_spans(in.begin(), in.end());
        std::vector<std::span<double>> out_spans(got.begin(), got.end());
        section.cascade_channels(sections, in_spans, out_spans);
        for (std::size_t c = 0; c < channels; ++c)
          expect_bits_equal(got[c], want[c], "channel-lane low-pass");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise layers on special values.

// A tensor seeded with NaN, infinities, denormals and signed zeros in the
// first elements, random normals after.
Tensor special_value_tensor(ml::Shape shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::max()};
  Rng rng{seed};
  auto flat = t.flat();
  for (std::size_t i = 0; i < flat.size(); ++i)
    flat[i] = i < std::size(specials)
                  ? specials[i]
                  : static_cast<float>(rng.normal(0.0, 2.0));
  return t;
}

std::vector<float> tensor_bits(const Tensor& t) {
  return {t.flat().begin(), t.flat().end()};
}

TEST(SimdLayerTest, ReluForwardBackwardBitIdenticalOnSpecialValues) {
  for (float cap : {0.0f, 6.0f}) {
    SCOPED_TRACE(::testing::Message() << "cap=" << cap);
    const Tensor x = special_value_tensor({2, 3, 5, 7}, 11);
    const Tensor g = special_value_tensor({2, 3, 5, 7}, 12);
    auto run = [&](util::SimdBackend backend) {
      SimdBackendGuard guard{backend};
      ml::ReLU relu{cap};
      const Tensor y = relu.forward(x, true);
      const Tensor gx = relu.backward(g);
      auto out = tensor_bits(y);
      const auto gbits = tensor_bits(gx);
      out.insert(out.end(), gbits.begin(), gbits.end());
      return out;
    };
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "ReLU");
  }
}

TEST(SimdLayerTest, BatchNormForwardBackwardBitIdentical) {
  // Finite-but-nasty inputs (denormals, huge magnitudes); train mode also
  // exercises the running-stat update and the backward normalization math.
  Tensor x = special_value_tensor({3, 4, 6, 5}, 21);
  x.flat()[0] = 1.0f;  // drop the NaN: batch stats would swallow everything
  const Tensor g = special_value_tensor({3, 4, 6, 5}, 22);
  auto run = [&](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    ml::BatchNorm bn{4};
    const Tensor y_train = bn.forward(x, true);
    const Tensor gx = bn.backward(g);
    const Tensor y_eval = bn.forward(x, false);
    auto out = tensor_bits(y_train);
    for (const Tensor& t : {gx, y_eval}) {
      const auto bits = tensor_bits(t);
      out.insert(out.end(), bits.begin(), bits.end());
    }
    return out;
  };
  expect_bits_equal(run(util::SimdBackend::kVector),
                    run(util::SimdBackend::kScalar), "BatchNorm");
}

TEST(SimdLayerTest, ResidualBlockBackwardKeepsNaNGradientSemantics) {
  // The post-sum ReLU backward zeroes gradients where sum <= 0 and must KEEP
  // them where the sum is NaN (scalar `if (sum <= 0)` is false on NaN) — a
  // cmp_gt-mask formulation would silently zero those lanes; that bug shows
  // up here as a 0.0 where the scalar path kept a finite gradient.  The conv
  // reductions inside the block mix NaNs of different payloads, so the
  // comparison is modulo NaN payload (see expect_bits_equal_modulo_nan).
  const Tensor x = special_value_tensor({2, 4, 6, 6}, 31);
  const Tensor g = special_value_tensor({2, 4, 6, 6}, 32);
  auto run = [&](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    Rng init{33};
    ml::ResidualBlock block{4, 4, 1, init};
    const Tensor y = block.forward(x, true);
    const Tensor gx = block.backward(g);
    auto out = tensor_bits(y);
    const auto gbits = tensor_bits(gx);
    out.insert(out.end(), gbits.begin(), gbits.end());
    return out;
  };
  expect_bits_equal_modulo_nan(run(util::SimdBackend::kVector),
                               run(util::SimdBackend::kScalar),
                               "ResidualBlock");
}

// ---------------------------------------------------------------------------
// Windowing.

TEST(SimdWindowTest, ApplyWindowBitIdenticalOnOddLengths) {
  for (std::size_t n : {std::size_t{1}, std::size_t{37}, std::size_t{256}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto window = dsp::cached_window(dsp::WindowType::kHann, n);
    Rng rng{1300 + n};
    std::vector<double> frame(n);
    for (auto& v : frame) v = rng.normal(0.0, 1.0);
    auto run = [&](util::SimdBackend backend) {
      SimdBackendGuard guard{backend};
      auto out = frame;
      dsp::apply_window(out, *window);
      return out;
    };
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "apply_window");
  }
}

TEST(SimdWindowTest, CachedWindowReusesCoefficients) {
  auto& hits = obs::Registry::instance().counter("dsp.window_hits");
  const auto first = dsp::cached_window(dsp::WindowType::kBlackman, 333);
  const auto hits_before = hits.value();
  const auto second = dsp::cached_window(dsp::WindowType::kBlackman, 333);
  EXPECT_EQ(first.get(), second.get()) << "second lookup must hit the cache";
  EXPECT_EQ(hits.value(), hits_before + 1);
  // Different length or type is a distinct plan.
  EXPECT_NE(dsp::cached_window(dsp::WindowType::kBlackman, 334).get(),
            first.get());
  EXPECT_NE(dsp::cached_window(dsp::WindowType::kHamming, 333).get(),
            first.get());
}

// ---------------------------------------------------------------------------
// End-to-end training determinism across backend x thread count.

Tensor random_tensor(ml::Shape shape, Rng& rng) {
  Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

std::vector<float> train_and_fingerprint(ml::ModelKind kind,
                                         util::SimdBackend backend,
                                         std::size_t threads) {
  SimdBackendGuard simd{backend};
  ThreadCountGuard pool{threads};
  const ml::ModelInputShape shape{.channels = 2, .height = 8, .width = 12};
  Rng model_rng{910};
  auto model = ml::make_model(kind, shape, 3, model_rng);

  Rng data_rng{911};
  ml::RegressionDataset data;
  data.x = random_tensor({24, shape.channels, shape.height, shape.width}, data_rng);
  data.y = random_tensor({24, 3}, data_rng);
  Rng split_rng{912};
  auto [train, val] = ml::split_dataset(data, 0.25, split_rng);

  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.eval_batch_size = 8;
  ml::train_regressor(*model, train, val, cfg);

  std::vector<float> fingerprint;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) fingerprint.push_back(v);
  Rng probe_rng{913};
  const Tensor probe =
      random_tensor({5, shape.channels, shape.height, shape.width}, probe_rng);
  const Tensor pred = model->forward(probe, false);
  for (float v : pred.flat()) fingerprint.push_back(v);
  return fingerprint;
}

class SimdDeterminismTest : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(SimdDeterminismTest, TrainingIsBitIdenticalAcrossBackendsAndThreads) {
  const auto reference =
      train_and_fingerprint(GetParam(), util::SimdBackend::kVector, 1);
  ASSERT_FALSE(reference.empty());
  const struct {
    util::SimdBackend backend;
    std::size_t threads;
    const char* what;
  } runs[] = {
      {util::SimdBackend::kVector, 4, "vector/4 threads"},
      {util::SimdBackend::kScalar, 1, "scalar/1 thread"},
      {util::SimdBackend::kScalar, 4, "scalar/4 threads"},
  };
  for (const auto& r : runs) {
    const auto fp = train_and_fingerprint(GetParam(), r.backend, r.threads);
    ASSERT_EQ(reference.size(), fp.size()) << r.what;
    EXPECT_EQ(std::memcmp(reference.data(), fp.data(),
                          reference.size() * sizeof(float)),
              0)
        << "training " << ml::to_string(GetParam()) << " diverged on " << r.what;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, SimdDeterminismTest,
                         ::testing::Values(ml::ModelKind::kMlp,
                                           ml::ModelKind::kMobileNetLite),
                         [](const auto& info) {
                           return ml::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Workspace pool: steady-state zero allocation on the serving hot path.

TEST(WorkspaceTest, ServingSteadyStateMakesNoHeapAllocations) {
  // Single-threaded so the thread_local free lists see every release (the
  // multi-thread residual — std::function SBO spill — is documented as out
  // of scope in DESIGN.md).
  ThreadCountGuard pool{1};
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.dataset.stride = 0.5;
  cfg.train.epochs = 1;
  core::SensoryMapper mapper{cfg};
  const core::Flight flight = test::hover_flight(8.0, 7);
  const std::vector<core::Flight> flights{flight};
  mapper.fit(test::lab(), flights);

  const auto windows = mapper.synthesize_windows(test::lab(), flight);
  ASSERT_FALSE(windows.empty());
  const auto& audio = windows.front().audio;
  const core::WindowSpan span{windows.front().t0, windows.front().t1};

  auto serve_once = [&] {
    const Tensor sig = mapper.prepare_signature(audio);
    const auto preds = mapper.predict_prepared({&sig, 1}, {&span, 1});
    ASSERT_EQ(preds.size(), 1u);
  };

  // The zero-allocation contract covers every serving path: both
  // compiled-plan precisions (plan compilation itself allocates — that's a
  // warm-up cost, paid once per precision switch).
  const ml::PlanPrecision saved = ml::plan_precision();
  for (const ml::PlanPrecision precision :
       {ml::PlanPrecision::kF64, ml::PlanPrecision::kF32}) {
    ml::set_plan_precision(precision);
    // Warm-up: first passes populate the per-thread free lists, build the
    // inference plan and any lazily-built caches (window coefficients).
    for (int i = 0; i < 3; ++i) serve_once();

    auto& heap_allocs =
        obs::Registry::instance().counter("ml.workspace.heap_allocs");
    const auto before = heap_allocs.value();
    for (int i = 0; i < 10; ++i) serve_once();
    EXPECT_EQ(heap_allocs.value(), before)
        << "steady-state serving took pool blocks from the heap (plan "
        << ml::to_string(precision) << ")";
  }
  ml::set_plan_precision(saved);
}

// A serving pump holds every staged window's signature tensor at once — one
// same-size pool block per session — and releases them together after the
// forward.  With more sessions than a fixed per-bucket block cap, the
// surplus blocks went back to the heap after every pump and were fetched
// again by the next one.
TEST(WorkspaceTest, ManySessionPumpMakesNoHeapAllocations) {
  ThreadCountGuard pool{1};
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.dataset.stride = 0.5;
  cfg.train.epochs = 1;
  core::SensoryMapper mapper{cfg};
  const core::Flight flight = test::hover_flight(12.0, 7);
  const std::vector<core::Flight> flights{flight};
  mapper.fit(test::lab(), flights);
  core::ImuRcaDetector imu{core::ImuRcaConfig{}};
  core::GpsRcaDetector gps{core::GpsRcaConfig{}};
  core::RcaCalibrator calibrator{imu, gps};
  calibrator.add(flight, mapper.predict_flight(test::lab(), flight));
  calibrator.fit();
  const auto audio =
      test::lab().synthesizer(flight).synthesize(flight.log, 0.0, 12.0);

  constexpr std::size_t kSessions = 20;
  std::deque<stream::RcaSession> sessions;
  stream::InferenceScheduler sched{mapper, {.max_batch = kSessions}};
  for (std::size_t id = 0; id < kSessions; ++id) {
    sessions.emplace_back(id, mapper, imu, gps);
    sessions.back().push_imu(flight.log.imu);
    sessions.back().push_gps(flight.log.gps);
    sched.attach(sessions.back());
  }
  // One stride of audio per session per round, then one pump: every round
  // after the first window stages one window per session, all served by
  // that pump's single forward.
  const auto stride = static_cast<std::size_t>(cfg.dataset.stride * audio.sample_rate);
  const std::size_t rounds = audio.num_samples() / stride;
  auto& heap_allocs = obs::Registry::instance().counter("ml.workspace.heap_allocs");
  std::uint64_t before = 0;
  std::size_t measured_windows = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // The first half warms the pool; the second half must not touch the heap.
    const bool measured = round >= rounds / 2;
    if (round == rounds / 2) before = heap_allocs.value();
    const auto first = static_cast<std::ptrdiff_t>(round * stride);
    acoustics::MultiChannelAudio chunk;
    chunk.sample_rate = audio.sample_rate;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      chunk.channels[c].assign(audio.channels[c].begin() + first,
                               audio.channels[c].begin() + first +
                                   static_cast<std::ptrdiff_t>(stride));
    for (auto& session : sessions) session.push_audio(chunk);
    const std::size_t inferred = sched.pump();
    if (measured) {
      ASSERT_EQ(inferred, kSessions) << "round " << round;
      measured_windows += inferred;
    }
    for (auto& session : sessions) (void)session.poll_verdicts();
  }
  ASSERT_GE(measured_windows, 4 * kSessions);
  EXPECT_EQ(heap_allocs.value(), before)
      << "steady-state pumps of " << kSessions
      << " sessions took pool blocks from the heap";
}

}  // namespace
}  // namespace sb
