// Radix-2 FFT and helpers.  Used by signature generation (spectrograms,
// band energies) and by the acoustics benches (Fig. 2 spectrum).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sb::dsp {

// In-place iterative radix-2 Cooley–Tukey FFT.  data.size() must be a power
// of two (throws std::invalid_argument otherwise).
void fft(std::vector<std::complex<double>>& data);

// Inverse FFT (normalized by 1/N).
void ifft(std::vector<std::complex<double>>& data);

// Span-based in-place transforms over caller-owned storage (e.g. workspace
// scratch buffers on the streaming hot path).  Same contract as fft/ifft.
void fft_inplace(std::span<std::complex<double>> data);
void ifft_inplace(std::span<std::complex<double>> data);

// Forward transforms of `batch` signals of length n at once, stored
// structure-of-arrays: element k of transform b sits at re[k * batch + b] and
// im[k * batch + b], so SIMD lanes span transforms.  The planes must already
// hold every input in BIT-REVERSED order — row k holds input sample rev[k],
// with rev from fft_bit_reversal(n) — so a caller that builds its inputs
// (stft's windowed frames) writes them straight into place.  Each transform
// is bitwise equal to fft_inplace of the same input: the butterflies use the
// same per-element formula and the same twiddle recurrence (run once per
// stage and broadcast across the batch), on the vector and scalar backends
// alike.  n must be a power of two and both planes n * batch long (throws
// std::invalid_argument otherwise).
void fft_batch_bitreversed(std::span<double> re, std::span<double> im,
                           std::size_t n, std::size_t batch);

// The memoized bit-reversal permutation for size n (a power of two; throws
// otherwise): one FFT plan lookup.  Plans are never evicted, so the span
// stays valid for the life of the process.
std::span<const std::size_t> fft_bit_reversal(std::size_t n);

// Single-precision forward transform for the opt-in float32 serving path
// (SB_PRECISION=f32; see DESIGN.md "Inference plan").  Shares the memoized
// bit-reversal plan with the double transform and adds a per-stage float
// twiddle table (built once per size with the double recurrence, rounded to
// float once per twiddle), so the only working precision lost is the
// butterfly arithmetic itself; scalar and vector paths are bitwise-identical,
// like fft_inplace (pinned by simd_test).
void fft_inplace_f32(std::span<std::complex<float>> data);

// FFT of a real signal; input is zero-padded to the next power of two.
// Returns the full complex spectrum of length next_pow2(n).
std::vector<std::complex<double>> fft_real(std::span<const double> signal);

// Magnitude spectrum of a real signal: bins [0, N/2], scaled by 2/N so a
// unit-amplitude sinusoid at a bin centre reads ~1.0.
std::vector<double> magnitude_spectrum(std::span<const double> signal);

// Frequency (Hz) of bin k for an N-point FFT at the given sample rate.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

// Pre-builds the memoized FFT plans (bit-reversal table + the f32 twiddle
// table) for size next_pow2(n), so a latency-sensitive caller's first
// transform doesn't pay the one-time plan construction (stream sessions warm
// this at creation).
void warm_fft_plan(std::size_t n);

// Single-bin DFT (Goertzel algorithm): magnitude of the component at
// target_hz.  Cheaper than a full FFT when only a few bins are needed.
double goertzel(std::span<const double> signal, double target_hz, double sample_rate);

}  // namespace sb::dsp
