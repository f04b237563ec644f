#include "optim/half.h"

#include <bit>
#include <cstring>

namespace so::optim {

namespace {

constexpr std::uint16_t kExpMask = 0x7c00;
constexpr std::uint16_t kFracMask = 0x03ff;

} // namespace

Half
floatToHalf(float value)
{
    const auto bits = std::bit_cast<std::uint32_t>(value);
    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    const std::uint32_t exp = (bits >> 23) & 0xffu;
    std::uint32_t frac = bits & 0x7fffffu;

    if (exp == 0xffu) {
        // Inf / NaN: preserve NaN-ness by keeping a non-zero fraction.
        const std::uint16_t payload =
            frac ? static_cast<std::uint16_t>((frac >> 13) | 1u) : 0u;
        return Half{static_cast<std::uint16_t>(sign | kExpMask | payload)};
    }

    // Re-bias exponent from 127 to 15.
    const std::int32_t new_exp = static_cast<std::int32_t>(exp) - 127 + 15;

    if (new_exp >= 0x1f) {
        // Overflow to infinity.
        return Half{static_cast<std::uint16_t>(sign | kExpMask)};
    }

    if (new_exp <= 0) {
        // Subnormal half (or zero). Shift in the implicit leading one.
        if (new_exp < -10)
            return Half{static_cast<std::uint16_t>(sign)};
        frac |= 0x800000u;
        const std::uint32_t shift = static_cast<std::uint32_t>(14 - new_exp);
        std::uint32_t half_frac = frac >> shift;
        // Round to nearest even on the bits shifted out.
        const std::uint32_t rem = frac & ((1u << shift) - 1u);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half_frac & 1u)))
            ++half_frac;
        return Half{static_cast<std::uint16_t>(sign | half_frac)};
    }

    // Normal case: round the 23-bit fraction to 10 bits, nearest-even.
    std::uint32_t half_frac = frac >> 13;
    const std::uint32_t rem = frac & 0x1fffu;
    std::uint32_t result = sign |
                           (static_cast<std::uint32_t>(new_exp) << 10) |
                           half_frac;
    if (rem > 0x1000u || (rem == 0x1000u && (half_frac & 1u))) {
        // Carry may ripple into the exponent; that is correct behaviour
        // (rounds up to the next binade or to infinity).
        ++result;
    }
    return Half{static_cast<std::uint16_t>(result)};
}

float
halfToFloat(Half value)
{
    const std::uint32_t sign =
        static_cast<std::uint32_t>(value.bits & 0x8000u) << 16;
    const std::uint32_t exp = (value.bits & kExpMask) >> 10;
    const std::uint32_t frac = value.bits & kFracMask;

    std::uint32_t out;
    if (exp == 0) {
        if (frac == 0) {
            out = sign; // +/- zero.
        } else {
            // Subnormal: normalize by shifting the fraction up. After
            // k shifts the value is (f / 2^10) * 2^(-14 - k), so the
            // unbiased exponent is e - 14 with e starting at zero.
            std::uint32_t f = frac;
            std::int32_t e = 0;
            while (!(f & 0x400u)) {
                f <<= 1;
                --e;
            }
            f &= kFracMask;
            out = sign |
                  (static_cast<std::uint32_t>(e + 1 - 15 + 127) << 23) |
                  (f << 13);
        }
    } else if (exp == 0x1f) {
        out = sign | 0x7f800000u | (frac << 13);
    } else {
        out = sign | ((exp - 15 + 127) << 23) | (frac << 13);
    }
    return std::bit_cast<float>(out);
}

bool
isNan(Half value)
{
    return (value.bits & kExpMask) == kExpMask &&
           (value.bits & kFracMask) != 0;
}

bool
isInf(Half value)
{
    return (value.bits & kExpMask) == kExpMask &&
           (value.bits & kFracMask) == 0;
}

Half
halfMinNormal()
{
    return Half{0x0400};
}

void
castToHalf(const float *src, Half *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = floatToHalf(src[i]);
}

void
castToFloat(const Half *src, float *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = halfToFloat(src[i]);
}

bool
hasNanOrInf(const Half *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if ((data[i].bits & kExpMask) == kExpMask)
            return true;
    }
    return false;
}

} // namespace so::optim
