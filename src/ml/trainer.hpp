// Minibatch training loop for regression models (MSE loss, Adam).
#pragma once

#include <vector>

#include "ml/layer.hpp"
#include "ml/model.hpp"

namespace sb::ml {

struct RegressionDataset {
  Tensor x;  // [N, ...]
  Tensor y;  // [N, output_dim]

  std::size_t size() const { return x.empty() ? 0 : x.dim(0); }
};

// Splits a dataset into (train, val) with the given validation fraction,
// shuffling with the provided rng.
std::pair<RegressionDataset, RegressionDataset> split_dataset(
    const RegressionDataset& data, double val_fraction, Rng& rng);

struct TrainConfig {
  std::size_t epochs = 12;
  std::size_t batch_size = 32;
  double lr = 1e-3;
  double weight_decay = 1e-4;
  double lr_decay = 1.0;  // per-epoch multiplicative decay
  std::uint64_t shuffle_seed = 1;
  // Batch size for the epoch-end / final evaluate_mse passes.  Bounds eval
  // peak memory to one batch of activations regardless of dataset size.
  std::size_t eval_batch_size = 64;
  // Data-parallel sharding (DESIGN.md "Training performance"): each
  // minibatch splits into fixed-`shard_grain`-row shards — the grain is
  // INDEPENDENT of the thread count — each shard runs forward+backward on a
  // model replica, and per-shard gradient/loss/BatchNorm-stat partials
  // reduce in ascending shard order, so trained weights are bit-identical
  // in the seed at any SB_THREADS and any replica count.  shard_grain = 0
  // disables sharding (the legacy serial minibatch loop, also the fallback
  // when a layer opts out of Layer::replicate); shard_grain >= batch_size
  // reproduces the serial loop's floating-point results bitwise (a single
  // shard), at serial speed.  Other grains are deterministic but associate
  // gradient sums differently and use per-shard (ghost) batch-norm
  // statistics — a different, equally valid training run.
  std::size_t shard_grain = 8;
  // Replica count for the sharded path: 0 = one per worker thread.
  std::size_t replicas = 0;
  bool verbose = false;
};

// Schema tag for training-math compatibility: bumped whenever a change
// alters the numeric results of training for the same seeds — the trainer
// itself or the corpus it is fed (not just its speed).  Cached
// trained-model artifacts — the bench model caches — key their filenames on
// this tag so stale weights retrain instead of silently masquerading as
// current results.  "tr2" = sharded data-parallel engine with ghost
// batch-norm statistics (grain 8); "tr3" = the same engine trained on
// windows cut from one recording per flight.
inline const char* trainer_schema_tag() { return "tr3"; }

struct TrainResult {
  std::vector<double> train_mse_per_epoch;
  std::vector<double> val_mse_per_epoch;
  double final_train_mse = 0.0;
  double final_val_mse = 0.0;
};

TrainResult train_regressor(Layer& model, const RegressionDataset& train,
                            const RegressionDataset& val, const TrainConfig& config);

}  // namespace sb::ml
