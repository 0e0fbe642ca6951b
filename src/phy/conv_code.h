// 802.11 convolutional code: rate-1/2 mother code, constraint length K = 7,
// generators g0 = 133o, g1 = 171o, with the standard puncturing patterns for
// rates 2/3 and 3/4. Decoding is Viterbi with an LLR correlation metric;
// hard-decision input is mapped to ±1 LLRs (bit 0 -> +1, bit 1 -> -1) and
// run through the same soft decoder. Punctured positions contribute zero
// metric.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/scrambler.h"  // for Bits

namespace nplus::phy {

enum class CodeRate { kRate1_2, kRate2_3, kRate3_4 };

// Numerator / denominator of the code rate.
int code_rate_num(CodeRate r);
int code_rate_den(CodeRate r);
double code_rate_value(CodeRate r);

// Encodes `data` (the encoder is flushed with K-1 = 6 tail zeros, which the
// caller must include in `data` if it wants proper trellis termination —
// frame.cc handles that). Output: coded bits after puncturing.
Bits conv_encode(const Bits& data, CodeRate rate);

// Number of coded bits produced for n_in input bits at `rate`.
std::size_t coded_length(std::size_t n_in, CodeRate rate);

// Hard-decision Viterbi decode of `coded` back to n_out data bits.
Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate);

// Soft-decision Viterbi decode. `llr[i]` > 0 means bit i is more likely 0;
// the magnitude is the confidence. Punctured positions are reinserted
// internally as zero-confidence values.
Bits viterbi_decode_soft(const std::vector<double>& llr, std::size_t n_out,
                         CodeRate rate);

}  // namespace nplus::phy
