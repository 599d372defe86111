/// \file int_arith.h
/// \brief INT64 arithmetic with defined results for every input.
///
/// Signed overflow is undefined behaviour in C++, and `INT64_MIN % -1`
/// traps on x86. The engine's INT64 arithmetic (expression kernels and
/// SUM accumulators) therefore wraps in two's complement by computing in
/// `uint64_t`, and its modulo maps a zero or −1 divisor to 0.

#ifndef VERTEXICA_COMMON_INT_ARITH_H_
#define VERTEXICA_COMMON_INT_ARITH_H_

#include <cstdint>

namespace vertexica {

inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// \brief `a % b` truncated toward zero; 0 when `b` is 0 or −1 (the only
/// divisors for which the C++ operator is undefined or traps; x % −1 is 0
/// for every other x anyway).
inline int64_t SafeMod(int64_t a, int64_t b) {
  return (b == 0 || b == -1) ? 0 : a % b;
}

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_INT_ARITH_H_
