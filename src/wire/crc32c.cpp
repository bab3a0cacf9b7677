#include "wire/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace fedbiad::wire {

namespace {

// Reflected CRC32C slice-by-8 tables, generated at compile time from the
// reversed Castagnoli polynomial 0x82F63B78. kTables[0] is the classic
// byte-at-a-time table; kTables[k][b] advances a state whose low byte is b
// past k additional zero bytes, so eight table lookups retire eight input
// bytes per iteration with no inter-lookup dependency chain.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0x82F63B78U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      crc = tables[0][crc & 0xFFU] ^ (crc >> 8);
      tables[k][i] = crc;
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
    make_tables();

inline std::uint32_t update_byte(std::uint32_t state,
                                 std::uint8_t byte) noexcept {
  return kTables[0][(state ^ byte) & 0xFFU] ^ (state >> 8);
}

// Arithmetic in GF(2)[x] modulo the CRC polynomial P, in the reflected
// bit order the CRC state uses: bit 31 holds x^0 and bit 0 holds x^31.
// Appending n zero bytes to a CRC state multiplies it by x^(8n) mod P, so
// both the 3-way merge tables below and crc32c_combine() are built from
// the two helpers here (after zlib's multmodp/x2nmodp).

constexpr std::uint32_t kOne = 1U << 31;  // the polynomial 1 (x^0)

// a * b mod P.
constexpr std::uint32_t gf2_multiply(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = kOne; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1U) != 0 ? (b >> 1) ^ 0x82F63B78U : b >> 1;  // b *= x
  }
  return product;
}

// kPow2[k] = x^(2^k) mod P, each the square of the one before. 67 entries
// cover x^(8n) for any 64-bit byte count n.
constexpr std::array<std::uint32_t, 67> make_pow2_table() {
  std::array<std::uint32_t, 67> table{};
  table[0] = kOne >> 1;  // x^1
  for (std::size_t k = 1; k < table.size(); ++k) {
    table[k] = gf2_multiply(table[k - 1], table[k - 1]);
  }
  return table;
}

constexpr std::array<std::uint32_t, 67> kPow2 = make_pow2_table();

// x^(8n) mod P by square-and-multiply: one table factor per set bit of 8n.
constexpr std::uint32_t gf2_zeros_operator(std::uint64_t n) {
  std::uint32_t op = kOne;
  for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
    if ((n & 1U) != 0) op = gf2_multiply(kPow2[k], op);
  }
  return op;
}

#if defined(__SSE4_2__)

// Three-stream hardware path, after Mark Adler's crc32c.c (see the header
// for why three). Three chains run over adjacent blocks and merge as: the
// CRC state of A||B is shift(state_A, |B|) ^ state_B(0), where shift()
// appends |B| zero bytes. That shift is a multiplication by a fixed
// polynomial, linear over GF(2), so it is applied a byte at a time through
// four 256-entry tables.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

// Tables applying `len` zero bytes to a reflected state.
constexpr ShiftTable make_shift_table(std::size_t len) {
  const std::uint32_t op = gf2_zeros_operator(len);
  ShiftTable table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 4; ++k) {
      table[k][b] = gf2_multiply(op, b << (8 * k));
    }
  }
  return table;
}

constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
constexpr ShiftTable kLongShift = make_shift_table(kLongBlock);
constexpr ShiftTable kShortShift = make_shift_table(kShortBlock);

inline std::uint32_t shift(const ShiftTable& t, std::uint32_t state) noexcept {
  return t[0][state & 0xFFU] ^ t[1][(state >> 8) & 0xFFU] ^
         t[2][(state >> 16) & 0xFFU] ^ t[3][state >> 24];
}

inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// One pass over 3 * block bytes: three chains, then fold the second and
// third into the first.
template <std::size_t kBlock>
inline std::uint32_t crc32c_hw_3way(const std::uint8_t* p, std::uint32_t s0,
                                    const ShiftTable& t) noexcept {
  std::uint64_t c0 = s0;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i < kBlock; i += 8) {
    c0 = _mm_crc32_u64(c0, load_u64(p + i));
    c1 = _mm_crc32_u64(c1, load_u64(p + kBlock + i));
    c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kBlock + i));
  }
  const std::uint32_t state = shift(t, static_cast<std::uint32_t>(c0)) ^
                              static_cast<std::uint32_t>(c1);
  return shift(t, state) ^ static_cast<std::uint32_t>(c2);
}

std::uint32_t crc32c_hw_state(const std::uint8_t* p, std::size_t n,
                              std::uint32_t state) noexcept {
  // Align to 8 bytes so the u64 loads below never straddle a page we were
  // not handed.
  while (n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7U) != 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
  while (n >= 3 * kLongBlock) {
    state = crc32c_hw_3way<kLongBlock>(p, state, kLongShift);
    p += 3 * kLongBlock;
    n -= 3 * kLongBlock;
  }
  while (n >= 3 * kShortBlock) {
    state = crc32c_hw_3way<kShortBlock>(p, state, kShortShift);
    p += 3 * kShortBlock;
    n -= 3 * kShortBlock;
  }
  while (n >= 8) {
    state = static_cast<std::uint32_t>(
        _mm_crc32_u64(static_cast<std::uint64_t>(state), load_u64(p)));
    p += 8;
    n -= 8;
  }
  while (n != 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
  return state;
}

#endif  // __SSE4_2__

std::uint32_t crc32c_sw_state(const std::uint8_t* p, std::size_t n,
                              std::uint32_t state) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The sliced formulation folds the state into a little-endian u32 load;
  // on a big-endian host we fall through to the byte loop below instead.
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^
            kTables[5][(lo >> 16) & 0xFFU] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
            kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  while (n != 0) {
    state = update_byte(state, *p++);
    --n;
  }
  return state;
}

}  // namespace

std::uint32_t crc32c_sw(std::span<const std::uint8_t> data,
                        std::uint32_t crc) noexcept {
  const std::uint32_t state =
      crc32c_sw_state(data.data(), data.size(), crc ^ 0xFFFFFFFFU);
  return state ^ 0xFFFFFFFFU;
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::size_t len_b) noexcept {
  // The init/xorout terms cancel: crc(A||B) = crc_a * x^(8|B|) ^ crc_b.
  return gf2_multiply(gf2_zeros_operator(len_b), crc_a) ^ crc_b;
}

bool crc32c_hw_available() noexcept {
#if defined(__SSE4_2__)
  return true;
#else
  return false;
#endif
}

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t crc) noexcept {
#if defined(__SSE4_2__)
  const std::uint32_t state =
      crc32c_hw_state(data.data(), data.size(), crc ^ 0xFFFFFFFFU);
  return state ^ 0xFFFFFFFFU;
#else
  return crc32c_sw(data, crc);
#endif
}

}  // namespace fedbiad::wire
