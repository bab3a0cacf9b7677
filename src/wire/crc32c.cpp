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

#if defined(__SSE4_2__)

// Three-stream hardware path, after Mark Adler's crc32c.c (see the header
// for why three). Three chains run over adjacent blocks and merge as: the
// CRC state of A||B is shift(state_A, |B|) ^ state_B(0), where shift()
// appends |B| zero bytes. That shift is linear over GF(2), so it is a
// 32x32 bit matrix, built for a power-of-two length by repeated squaring
// of the one-zero-bit operator and applied a byte at a time through four
// 256-entry tables.
using Gf2Matrix = std::array<std::uint32_t, 32>;
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr std::uint32_t gf2_times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1) {
    if ((vec & 1U) != 0) sum ^= mat[i];
  }
  return sum;
}

constexpr Gf2Matrix gf2_square(const Gf2Matrix& mat) {
  Gf2Matrix sq{};
  for (std::size_t i = 0; i < 32; ++i) sq[i] = gf2_times(mat, mat[i]);
  return sq;
}

// Tables applying `len` zero bytes (a power of two) to a reflected state.
constexpr ShiftTable make_shift_table(std::size_t len) {
  Gf2Matrix op{};  // one zero bit: shift right, fold the polynomial in
  op[0] = 0x82F63B78U;
  for (std::size_t i = 1; i < 32; ++i) op[i] = 1U << (i - 1);
  for (std::size_t bits = 1; bits < 8 * len; bits <<= 1) op = gf2_square(op);
  ShiftTable table{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 4; ++k) {
      table[k][b] = gf2_times(op, b << (8 * k));
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
