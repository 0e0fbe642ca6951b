#include "sim/rx_math.h"

#include <cassert>

#include "linalg/decomp.h"
#include "linalg/subspace.h"

namespace nplus::sim {

using linalg::cdouble;

CMat advertised_unwanted_space(const CMat& g_est, const CMat& f_est,
                               std::size_t n_wanted) {
  const std::size_t n_ant = g_est.rows();
  if (n_wanted == 0) n_wanted = g_est.cols();
  assert(n_wanted <= n_ant);
  const std::size_t target_dim = n_ant - n_wanted;

  // Start from the interference span.
  CMat base = linalg::orthonormal_basis(f_est);
  if (base.cols() > target_dim) {
    // More interference directions than unwanted dimensions: the receiver
    // is overloaded; keep the strongest directions (basis is ordered by
    // pivoted-QR column magnitude).
    base = base.block(0, base.rows(), 0, target_dim);
  }
  if (base.cols() == target_dim) return base;

  // Top up with directions orthogonal to both the interference and the
  // wanted channels.
  const CMat combined = base.hstack(g_est);
  const CMat extra = linalg::orthogonal_complement(combined);
  std::size_t need = target_dim - base.cols();
  if (extra.cols() < need) {
    // Wanted + interference span too much of the space to avoid both; take
    // what orthogonal directions exist and fill the rest from the
    // complement of the interference alone (encroaching on the wanted span
    // is the receiver's least-bad option).
    CMat u = base.hstack(extra);
    const CMat fallback = linalg::orthogonal_complement(u);
    const std::size_t more =
        std::min(target_dim - u.cols(), fallback.cols());
    return u.hstack(fallback.block(0, fallback.rows(), 0, more));
  }
  return base.hstack(extra.block(0, extra.rows(), 0, need));
}

namespace {

// The receiver's combiner and what it makes of the air: the one ZF
// computation behind zf_stream_sinr and zf_stream_rx_models.
struct ZfCombined {
  CMat combiner;  // n x N
  CMat own;       // n x n: combiner applied to the true wanted channels
  CMat leak;      // n x j residual interference; empty when j = 0
};

// False (leaving `out` untouched) when the projected space cannot support
// the streams: fewer free dimensions than streams, or a singular
// regularized Gram.
bool zf_combine(const RxObservation& obs, ZfCombined& out) {
  // Interference-free receive directions.
  const CMat w = linalg::orthogonal_complement(obs.unwanted_basis);
  if (w.cols() < obs.g_true.cols()) return false;

  // MMSE-regularized inversion of the estimated effective channel inside
  // the projected space: at high SNR this is the paper's zero-forcing; at
  // low SNR it avoids the catastrophic noise enhancement of a near-singular
  // inverse, matching how practical 802.11n receivers behave.
  const CMat a = w.hermitian() * obs.g_est;  // d x n (estimated)
  const CMat gram = a.hermitian() * a;       // n x n
  CMat reg = gram;
  for (std::size_t i = 0; i < reg.rows(); ++i) {
    reg(i, i) += cdouble{obs.noise_power, 0.0};
  }
  const auto reg_inv = linalg::inverse(reg);
  if (!reg_inv.has_value()) return false;
  out.combiner = (*reg_inv) * a.hermitian() * w.hermitian();

  out.own = out.combiner * obs.g_true;  // ~identity under perfect est.
  if (obs.interference_true.cols() > 0) {
    out.leak = out.combiner * obs.interference_true;
  }
  return true;
}

}  // namespace

std::vector<StreamRxModel> zf_stream_rx_models(const RxObservation& obs) {
  const std::size_t n = obs.g_true.cols();
  std::vector<StreamRxModel> models(n);
  ZfCombined z;
  if (!zf_combine(obs, z)) return models;

  for (std::size_t s = 0; s < n; ++s) {
    StreamRxModel& m = models[s];
    m.gain = z.own(s, s);
    const double sig = std::norm(m.gain);
    double err = 0.0;
    m.self.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t t = 0; t < n; ++t) {
      if (t == s) continue;
      m.self.push_back(z.own(s, t));
      err += std::norm(z.own(s, t));
    }
    m.leak.reserve(z.leak.cols());
    for (std::size_t c = 0; c < z.leak.cols(); ++c) {
      m.leak.push_back(z.leak(s, c));
      err += std::norm(z.leak(s, c));
    }
    m.noise_var = z.combiner.row(s).norm_sq() * obs.noise_power;
    err += m.noise_var;
    m.sinr = err > 0.0 ? sig / err : 1e12;
  }
  return models;
}

// The same sums as zf_stream_rx_models, in the same order, without its
// per-stream vectors: this summary runs in the packet simulator's hottest
// loop (every subcarrier of every join attempt).
std::vector<double> zf_stream_sinr(const RxObservation& obs) {
  const std::size_t n = obs.g_true.cols();
  std::vector<double> sinr(n, 0.0);
  ZfCombined z;
  if (!zf_combine(obs, z)) return sinr;

  for (std::size_t s = 0; s < n; ++s) {
    const double sig = std::norm(z.own(s, s));
    double err = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (t != s) err += std::norm(z.own(s, t));
    }
    for (std::size_t c = 0; c < z.leak.cols(); ++c) {
      err += std::norm(z.leak(s, c));
    }
    err += z.combiner.row(s).norm_sq() * obs.noise_power;
    sinr[s] = err > 0.0 ? sig / err : 1e12;
  }
  return sinr;
}

}  // namespace nplus::sim
