#include "phy/conv_code.h"

#include <array>
#include <cassert>
#include <limits>
#include <utility>

namespace nplus::phy {

namespace {

constexpr unsigned kG0 = 0133;  // octal, 7 taps
constexpr unsigned kG1 = 0171;
constexpr int kK = 7;
constexpr int kStates = 1 << (kK - 1);  // 64

// Parity of the lowest 7 bits.
constexpr std::uint8_t parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

// Puncturing patterns over the rate-1/2 output pairs (A = g0 bit, B = g1
// bit). Pattern entries: true = transmitted, false = punctured.
// Rate 2/3: period 2 input bits -> pairs A1 B1 A2 (B2 punctured).
// Rate 3/4: period 3 input bits -> A1 B1 A2 B3 (B2, A3 punctured).
struct Puncture {
  std::vector<bool> pattern;  // over the serialized A,B stream
  std::size_t in_period;      // input bits per period
};

const Puncture& puncture_for(CodeRate r) {
  static const Puncture p12{{true, true}, 1};
  static const Puncture p23{{true, true, true, false}, 2};
  static const Puncture p34{{true, true, true, false, false, true}, 3};
  switch (r) {
    case CodeRate::kRate1_2:
      return p12;
    case CodeRate::kRate2_3:
      return p23;
    case CodeRate::kRate3_4:
      return p34;
  }
  return p12;
}

}  // namespace

int code_rate_num(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 1;
    case CodeRate::kRate2_3:
      return 2;
    case CodeRate::kRate3_4:
      return 3;
  }
  return 1;
}

int code_rate_den(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 2;
    case CodeRate::kRate2_3:
      return 3;
    case CodeRate::kRate3_4:
      return 4;
  }
  return 2;
}

double code_rate_value(CodeRate r) {
  return static_cast<double>(code_rate_num(r)) / code_rate_den(r);
}

std::size_t coded_length(std::size_t n_in, CodeRate rate) {
  const auto& p = puncture_for(rate);
  // Mother-code output length 2*n_in, walked against the puncture pattern.
  std::size_t kept = 0;
  const std::size_t pattern_len = p.pattern.size();
  const std::size_t total = 2 * n_in;
  const std::size_t full = total / pattern_len;
  std::size_t kept_per_period = 0;
  for (bool b : p.pattern) kept_per_period += b ? 1u : 0u;
  kept = full * kept_per_period;
  for (std::size_t i = full * pattern_len; i < total; ++i) {
    if (p.pattern[i % pattern_len]) ++kept;
  }
  return kept;
}

Bits conv_encode(const Bits& data, CodeRate rate) {
  const auto& p = puncture_for(rate);
  Bits out;
  out.reserve(coded_length(data.size(), rate));
  unsigned state = 0;  // most recent bit in the LSB of the shifted-in side
  std::size_t mother_idx = 0;
  for (std::uint8_t bit : data) {
    const unsigned reg = (static_cast<unsigned>(bit & 1u) << 6) | state;
    const std::uint8_t a = parity7(reg & kG0);
    const std::uint8_t b = parity7(reg & kG1);
    if (p.pattern[mother_idx % p.pattern.size()]) out.push_back(a);
    ++mother_idx;
    if (p.pattern[mother_idx % p.pattern.size()]) out.push_back(b);
    ++mother_idx;
    state = reg >> 1;
  }
  return out;
}

namespace {

// Depunctures a soft stream (LLRs) back to the full-rate 2*n_out-pair stream,
// inserting 0 (erasure) at punctured positions.
std::vector<double> depuncture(const std::vector<double>& in, std::size_t n_in,
                               CodeRate rate) {
  const auto& p = puncture_for(rate);
  std::vector<double> out(2 * n_in, 0.0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (p.pattern[i % p.pattern.size()]) {
      if (src < in.size()) out[i] = in[src++];
    }
  }
  return out;
}

// Butterfly view of the 64-state trellis. The state is the last six input
// bits, newest in bit 5, so input `in` moves state s to (in << 5) | (s >> 1):
// the predecessors 2j and 2j+1 both feed j (input 0) and j+32 (input 1).
// Both generators tap the newest and the oldest register bit, so flipping
// either one flips both coded bits: the branch 2j -> j carries the same
// output pair as 2j+1 -> j+32, and the two other branches carry its
// complement, whose correlation metric is the exact negation. One output
// pair index per butterfly therefore describes the whole trellis. It
// depends only on the mother code (g0/g1), not on the CodeRate — puncturing
// is handled entirely by depuncture(), so one table serves every rate.
constexpr int kHalf = kStates / 2;

constexpr std::array<std::uint8_t, kHalf> kButterflyOut = [] {
  std::array<std::uint8_t, kHalf> out{};
  for (unsigned j = 0; j < kHalf; ++j) {
    const unsigned reg = 2 * j;  // state 2j, input 0
    out[j] = static_cast<std::uint8_t>((parity7(reg & kG0) << 1) |
                                       parity7(reg & kG1));
  }
  return out;
}();

// Add-compare-select over the butterflies, gather form: each target state
// reads its two predecessors, so a step is 32 butterflies over two metric
// buffers with no data-dependent branch in the source. Survivors are one
// bit per state per step, set when the odd predecessor won. GCC -O3
// vectorizes the branch-metric loop at the baseline ISA; the ACS loop stays
// scalar there, because SSE2 cannot turn a double compare into a byte flag
// (a variant that kept double flags to get a vectorized loop measured no
// faster).
//
// Tie-break contract: the result is the one the per-transition scatter form
// (walk the source states in order, skip unreached ones, keep a candidate
// only if strictly better) gives, byte for byte, for every input including
// ties, NaN and ±inf. Each target's running max starts at -inf, the even
// predecessor is compared first and every comparison is a strict `>`, so a
// tie keeps the even predecessor, a NaN or -inf candidate never wins and an
// unreached state stays at -inf with survivor bit 0. The negated branch
// metric can differ from the scatter form's `-la ± lb` only in the sign of
// a zero or a NaN; neither changes a comparison, and adding ±0 to a path
// metric gives the same sum because path metrics are never -0.
Bits viterbi_core(const std::vector<double>& llr_full, std::size_t n_out) {
  // llr_full has 2 entries (A, B) per input bit; llr > 0 favors bit value 0.
  assert(llr_full.size() >= 2 * n_out);

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::array<double, kStates> metric_a;
  std::array<double, kStates> metric_b;
  metric_a.fill(kNegInf);
  metric_a[0] = 0.0;  // encoder starts in state 0
  double* metric = metric_a.data();
  double* next_metric = metric_b.data();
  std::vector<std::uint64_t> survivors(n_out);

  for (std::size_t t = 0; t < n_out; ++t) {
    const double la = llr_full[2 * t];
    const double lb = llr_full[2 * t + 1];
    // Correlation metric: +llr if the coded bit is 0, -llr if it is 1, one
    // value per (a, b) output pair.
    const std::array<double, 4> bm = {la + lb, la - lb, -la + lb, -la - lb};
    std::array<double, kHalf> branch;
    std::array<double, kHalf> negated;
    for (int j = 0; j < kHalf; ++j) {
      branch[j] = bm[kButterflyOut[j]];
      negated[j] = -branch[j];
    }

    std::array<std::uint8_t, kStates> odd_won;
    for (int j = 0; j < kHalf; ++j) {
      const double even = metric[2 * j];
      const double odd = metric[2 * j + 1];
      // Target j takes 2j on the butterfly's branch and 2j+1 on its
      // negation; target j+32 swaps the two.
      const double e0 = even + branch[j];
      const double o0 = odd + negated[j];
      const double e1 = even + negated[j];
      const double o1 = odd + branch[j];
      const double m0 = e0 > kNegInf ? e0 : kNegInf;
      const double m1 = e1 > kNegInf ? e1 : kNegInf;
      const bool w0 = o0 > m0;
      const bool w1 = o1 > m1;
      next_metric[j] = w0 ? o0 : m0;
      next_metric[j + kHalf] = w1 ? o1 : m1;
      odd_won[j] = w0;
      odd_won[j + kHalf] = w1;
    }
    // Pack the 64 0/1 bytes into bits: the multiply gathers the low bit of
    // each byte of an 8-byte group into the top byte, byte i to bit 56 + i.
    std::uint64_t word = 0;
    for (int g = 0; g < kStates / 8; ++g) {
      std::uint64_t bytes = 0;
      for (int i = 0; i < 8; ++i) {
        bytes |= static_cast<std::uint64_t>(odd_won[8 * g + i]) << (8 * i);
      }
      word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * g);
    }
    survivors[t] = word;
    std::swap(metric, next_metric);
  }

  // Trace back from the best end state (frames are tail-terminated to state
  // 0 by frame.cc, but be robust to untailed use).
  int state = 0;
  double best = metric[0];
  for (int s = 1; s < kStates; ++s) {
    if (metric[s] > best) {
      best = metric[s];
      state = s;
    }
  }

  Bits out(n_out);
  for (std::size_t t = n_out; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> 5);  // the input bit
    const int odd = static_cast<int>((survivors[t] >> state) & 1u);
    state = ((state << 1) | odd) & (kStates - 1);
  }
  return out;
}

}  // namespace

Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate) {
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llr[i] = coded[i] ? -1.0 : 1.0;
  }
  return viterbi_decode_soft(llr, n_out, rate);
}

Bits viterbi_decode_soft(const std::vector<double>& llr, std::size_t n_out,
                         CodeRate rate) {
  const std::vector<double> full = depuncture(llr, n_out, rate);
  return viterbi_core(full, n_out);
}

}  // namespace nplus::phy
