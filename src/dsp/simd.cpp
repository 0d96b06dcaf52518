#include "dsp/simd.hpp"

#include "common/error.hpp"
#include "dsp/simd_impl.hpp"

#ifndef PTRACK_SIMD_ENABLED
#define PTRACK_SIMD_ENABLED 1
#endif

namespace ptrack::dsp::simd {

namespace detail {

const KernelTable& scalar_table() {
  static const KernelTable t = {
      &sum_canonical<double>,
      &sum_canonical<float>,
      &dot_canonical<double>,
      &dot_canonical<float>,
      &sumsq_dev_canonical<double>,
      &sumsq_dev_canonical<float>,
      &window_moments_canonical,
      &axis_project_canonical<double>,
      &axis_project_canonical<float>,
      &residual_project_canonical<double>,
      &residual_project_canonical<float>,
      &negate_canonical,
      &sub_scalar_canonical,
      &diff_div_canonical,
      &widen_canonical,
      &narrow_canonical,
      &min_until_greater_fwd_canonical,
      &min_until_greater_bwd_canonical,
      &normalize_lags_canonical,
      &count_byte_canonical,
      &cascade_multi_canonical<double>,
      &cascade_multi_canonical<float>,
  };
  return t;
}

}  // namespace detail

namespace {

const detail::KernelTable& table_for(Isa isa) {
  switch (isa) {
#ifdef PTRACK_SIMD_HAVE_AVX2
    case Isa::kAvx2:
      return detail::avx2_table();
#endif
#ifdef PTRACK_SIMD_HAVE_NEON
    case Isa::kNeon:
      return detail::neon_table();
#endif
    default:
      return detail::scalar_table();
  }
}

/// Active table + ISA, initialized from the CPU on first use. force_isa is
/// a single-threaded test hook by contract, so plain members suffice.
struct Dispatch {
  Isa isa;
  const detail::KernelTable* table;
  Dispatch() : isa(detected()), table(&table_for(isa)) {}
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

Isa detected() {
#if !PTRACK_SIMD_ENABLED
  return Isa::kScalar;
#elif defined(PTRACK_SIMD_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kScalar;
#elif defined(PTRACK_SIMD_HAVE_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

Isa active() { return dispatch().isa; }

void force_isa(Isa isa) {
  // Clamp to what this build + CPU can actually run.
  if (isa != detected()) isa = Isa::kScalar;
  dispatch().isa = isa;
  dispatch().table = &table_for(isa);
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

double sum(std::span<const double> xs) {
  return dispatch().table->sum_d(xs.data(), xs.size());
}

float sumf(std::span<const float> xs) {
  return dispatch().table->sum_f(xs.data(), xs.size());
}

double dot(std::span<const double> a, std::span<const double> b) {
  expects(a.size() == b.size(), "simd::dot: equal lengths");
  return dispatch().table->dot_d(a.data(), b.data(), a.size());
}

float dotf(std::span<const float> a, std::span<const float> b) {
  expects(a.size() == b.size(), "simd::dotf: equal lengths");
  return dispatch().table->dot_f(a.data(), b.data(), a.size());
}

double sumsq_dev(std::span<const double> xs, double mean) {
  return dispatch().table->sumsq_dev_d(xs.data(), xs.size(), mean);
}

float sumsq_devf(std::span<const float> xs, float mean) {
  return dispatch().table->sumsq_dev_f(xs.data(), xs.size(), mean);
}

WindowMoments window_moments(std::span<const double> x,
                             std::span<const double> y,
                             std::span<const double> z,
                             const Vec3& shift) {
  expects(x.size() == y.size() && y.size() == z.size(),
          "simd::window_moments: equal lengths");
  return dispatch().table->window_moments_d(x.data(), y.data(), z.data(),
                                            x.size(), shift);
}

void axis_project(std::span<const double> x, std::span<const double> y,
                  std::span<const double> z, const Vec3& u, double bias,
                  std::span<double> out) {
  expects(x.size() == y.size() && y.size() == z.size() &&
              z.size() == out.size(),
          "simd::axis_project: equal lengths");
  dispatch().table->axis_project_d(x.data(), y.data(), z.data(), x.size(), u,
                                   bias, out.data());
}

void axis_projectf(std::span<const float> x, std::span<const float> y,
                   std::span<const float> z, const Vec3& u, float bias,
                   std::span<float> out) {
  expects(x.size() == y.size() && y.size() == z.size() &&
              z.size() == out.size(),
          "simd::axis_projectf: equal lengths");
  dispatch().table->axis_project_f(x.data(), y.data(), z.data(), x.size(), u,
                                   bias, out.data());
}

void residual_project(std::span<const double> x, std::span<const double> y,
                      std::span<const double> z, const Vec3& up,
                      const Vec3& dir, std::span<double> out) {
  expects(x.size() == y.size() && y.size() == z.size() &&
              z.size() == out.size(),
          "simd::residual_project: equal lengths");
  dispatch().table->residual_project_d(x.data(), y.data(), z.data(), x.size(),
                                       up, dir, out.data());
}

void residual_projectf(std::span<const float> x, std::span<const float> y,
                       std::span<const float> z, const Vec3& up,
                       const Vec3& dir, std::span<float> out) {
  expects(x.size() == y.size() && y.size() == z.size() &&
              z.size() == out.size(),
          "simd::residual_projectf: equal lengths");
  dispatch().table->residual_project_f(x.data(), y.data(), z.data(), x.size(),
                                       up, dir, out.data());
}

void negate(std::span<const double> xs, std::span<double> out) {
  expects(xs.size() == out.size(), "simd::negate: equal lengths");
  dispatch().table->negate_d(xs.data(), xs.size(), out.data());
}

void sub_scalar(std::span<const double> xs, double m, std::span<double> out) {
  expects(xs.size() == out.size(), "simd::sub_scalar: equal lengths");
  dispatch().table->sub_scalar_d(xs.data(), xs.size(), m, out.data());
}

void diff_div(std::span<const double> hi, std::span<const double> lo,
              double div, std::span<double> out) {
  expects(hi.size() == lo.size() && lo.size() == out.size(),
          "simd::diff_div: equal lengths");
  dispatch().table->diff_div_d(hi.data(), lo.data(), hi.size(), div,
                               out.data());
}

void widen(std::span<const float> xs, std::span<double> out) {
  expects(xs.size() == out.size(), "simd::widen: equal lengths");
  dispatch().table->widen_f(xs.data(), xs.size(), out.data());
}

void narrow(std::span<const double> xs, std::span<float> out) {
  expects(xs.size() == out.size(), "simd::narrow: equal lengths");
  dispatch().table->narrow_d(xs.data(), xs.size(), out.data());
}

double min_until_greater_fwd(std::span<const double> xs, double h) {
  return dispatch().table->min_until_greater_fwd_d(xs.data(), xs.size(), h);
}

double min_until_greater_bwd(std::span<const double> xs, double h) {
  return dispatch().table->min_until_greater_bwd_d(xs.data(), xs.size(), h);
}

void normalize_lags(std::span<const double> raw, std::size_t n, double den,
                    std::span<double> out) {
  expects(out.size() <= raw.size(), "simd::normalize_lags: raw covers lags");
  expects(out.empty() || out.size() - 1 < n,
          "simd::normalize_lags: lags < n");
  dispatch().table->normalize_lags_d(raw.data(), n, out.size(), den,
                                     out.data());
}

std::size_t count_byte(std::span<const char> bytes, char byte) {
  return dispatch().table->count_byte(bytes.data(), bytes.size(), byte);
}

void cascade_multi(std::span<const BiquadCoeffs> sections, double* data,
                   std::size_t n, bool backward) {
  expects(sections.size() <= detail::kMaxSections,
          "simd::cascade_multi: section count");
  dispatch().table->cascade_multi_d(sections.data(), sections.size(), data, n,
                                    backward);
}

void cascade_multif(std::span<const BiquadCoeffs> sections, float* data,
                    std::size_t n, bool backward) {
  expects(sections.size() <= detail::kMaxSections,
          "simd::cascade_multif: section count");
  dispatch().table->cascade_multi_f(sections.data(), sections.size(), data, n,
                                    backward);
}

}  // namespace ptrack::dsp::simd
