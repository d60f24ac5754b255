// Traced per-layer probes of the offline pipeline, shared by both workloads:
// RcaEngine::analyze decomposed into its public calls, and the model's
// save/load round trip.
#pragma once

#include <span>

#include "common.hpp"
#include "core/flight_lab.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"

namespace sbbench {

bool same_bits(double a, double b);

// Report equality down to the bits of the detect times.
bool same_report(const sb::core::RcaReport& a, const sb::core::RcaReport& b);

// One flight to decompose, with analyze()'s report on it as the reference.
struct OfflineFlight {
  const sb::core::FlightLab* lab = nullptr;
  const sb::core::Flight* flight = nullptr;
  const sb::core::PredictionHooks* hooks = nullptr;
  sb::core::RcaReport reference;
};

// Runs analyze() flight by flight as synthesize_windows -> prepare_signature
// / predict_prepared / predict_windows -> residuals -> GpsRcaDetector::analyze
// and reports acoustics.synth_ms_per_window, core.signature_us_per_window,
// dsp.fft_calls_per_window, ml.forward_us_per_window.bulk,
// ml.gemm_mflop_per_window, ml.gemm_calls_per_window,
// detect.imu_residuals_ms_per_flight, estimation.gps_analyze_ms_per_flight
// and estimation.kf_step_us.p50.  Gates that the decomposition reproduces
// every reference report.
void trace_offline_layers(Result& res, const sb::core::SensoryMapper& mapper,
                          const sb::core::ImuRcaDetector& imu,
                          const sb::core::GpsRcaDetector& gps,
                          std::span<const OfflineFlight> flights);

// Reports io.model_clone_ms: the median of five save/load round trips of
// `mapper`, as each fleet shard clones its model.
void trace_model_clone(Result& res, const sb::core::SensoryMapper& mapper);

}  // namespace sbbench
