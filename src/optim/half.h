/**
 * @file
 * Software IEEE 754 binary16 ("half") implementation.
 *
 * Mixed-precision training (§4.5) stores parameters and gradients in
 * FP16 and casts to FP32 for the optimizer. The Superchip-aware casting
 * study (Fig. 9) compares where that cast runs and in which precision
 * the tensor crosses the C2C link, so we need a real, bit-exact binary16
 * with bulk conversion kernels.
 */
#ifndef SO_OPTIM_HALF_H
#define SO_OPTIM_HALF_H

#include <cstddef>
#include <cstdint>

namespace so::optim {

/** Storage type for one binary16 value. */
struct Half
{
    std::uint16_t bits = 0;

    bool operator==(const Half &other) const = default;
};

/** Convert float -> half with round-to-nearest-even (IEEE default). */
Half floatToHalf(float value);

/** Convert half -> float (exact). */
float halfToFloat(Half value);

/** True for both quiet and signalling NaN encodings. */
bool isNan(Half value);

/** True for +/- infinity. */
bool isInf(Half value);

/** Smallest positive normal half (2^-14). */
Half halfMinNormal();

/** Bulk cast float[0..n) -> half[0..n). */
void castToHalf(const float *src, Half *dst, std::size_t n);

/** Bulk cast half[0..n) -> float[0..n). */
void castToFloat(const Half *src, float *dst, std::size_t n);

/** True if any element of half[0..n) is NaN or Inf. */
bool hasNanOrInf(const Half *data, std::size_t n);

} // namespace so::optim

#endif // SO_OPTIM_HALF_H
