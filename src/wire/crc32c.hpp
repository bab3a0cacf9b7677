// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte runs.
//
// The fault-tolerance layer uses this checksum in two places: the optional
// per-payload frame trailer (wire/update_codec.hpp seal_payload) that lets
// the server reject bit-flipped or truncated uploads instead of trusting
// the section decoder to notice, and the checkpoint file footer that lets
// resume() tell a torn snapshot from a good one. CRC32C detects all 1- and
// 2-bit errors and all burst errors up to 32 bits — exactly the corruption
// classes the fault injector produces. The transport layer additionally
// seals every frame, so with decode-on-arrival workers the checksum sits on
// the ingest hot path.
//
// crc32c() dispatches to the SSE4.2 CRC32 instruction when this translation
// unit was built with it. That instruction has a latency of 3 cycles and a
// throughput of 1 per cycle, so the hardware path runs three independent
// streams over adjacent blocks (3 x 8192 B, then 3 x 256 B, then 8-byte
// words and single bytes) and merges them. A merge shifts a stream's state
// past the bytes that follow it with a zero-shift table: 4 x 256 u32 per
// block size, built at compile time from x^(8 x block) mod P (Mark Adler's
// crc32c.c method). Every other build uses crc32c_sw(), a slice-by-8 table
// walk (8 bytes per iteration). Both paths produce identical values; the
// dispatch is a pure speed choice.
//
// crc32c_combine() joins two CRCs without rereading either run, with the
// same GF(2) arithmetic the merge tables are built from; it is available
// on every build, portable included. The transport frames a model
// broadcast this way: the broadcast's CRC is computed once per model
// version and combined with each Dispatch's own few header bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fedbiad::wire {

/// CRC32C of `data`, seeded with `crc` (pass the previous return value to
/// checksum a buffer in chunks; 0 starts a fresh run). The standard
/// reflected algorithm: init/xorout 0xFFFFFFFF are applied internally, so
/// crc32c("123456789") == 0xE3069283. Dispatches to the hardware path when
/// available, the software path otherwise.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t crc = 0) noexcept;

/// Portable slice-by-8 software implementation. Same values as crc32c();
/// exposed so tests and benches can pin the two paths against each other.
[[nodiscard]] std::uint32_t crc32c_sw(std::span<const std::uint8_t> data,
                                      std::uint32_t crc = 0) noexcept;

/// crc32c(A||B) from crc_a = crc32c(A), crc_b = crc32c(B) and len_b = |B|:
/// crc_a shifted past |B| zero bytes (x^(8|B|) mod P by square-and-multiply,
/// at most one 32-step GF(2) product per bit of |B|), xor crc_b. Reads
/// neither run, so its cost does not grow with |B|'s bytes.
[[nodiscard]] std::uint32_t crc32c_combine(std::uint32_t crc_a,
                                           std::uint32_t crc_b,
                                           std::size_t len_b) noexcept;

/// True when crc32c() routes through the SSE4.2 CRC32 instruction (i.e.
/// this TU was compiled with -msse4.2 and not FEDBIAD_PORTABLE).
[[nodiscard]] bool crc32c_hw_available() noexcept;

}  // namespace fedbiad::wire
