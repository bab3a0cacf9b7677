// Per-thread scratch arena for kernel temporaries.
//
// Training inner loops (LSTM BPTT buffers, GEMM packing panels,
// aggregation partial sums) need short-lived float/double buffers every
// batch. Allocating them from the heap each call dominates small-model
// training, so each thread owns a Workspace: a bump allocator over a list
// of chunks that are retained between calls. Steady-state training performs
// zero heap allocations — the arena grows to the high-water mark once and
// is then reused forever.
//
// Lifetime rules (see docs/ARCHITECTURE.md):
//   - buffers come from Workspace::local() and are valid until the
//     enclosing Workspace::Scope is destroyed;
//   - chunks never move, so earlier allocations stay valid while later
//     ones are made inside the same scope;
//   - buffers are per-thread: the owner may let a BLOCKING parallel_for
//     region read/write one (the call outlives the workers' use), but
//     workers allocate their own scratch via Workspace::local(), and
//     pointers are never stored or handed across threads otherwise;
//   - scopes nest (inner scopes release back to the outer watermark).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace fedbiad::tensor {

class Workspace {
 public:
  /// The calling thread's arena. Pool worker threads each get their own,
  /// which persists for the lifetime of the thread.
  static Workspace& local();

  /// RAII watermark: allocations made after construction are released (but
  /// their chunks retained) when the Scope is destroyed.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t chunk_ = 0;
    std::size_t used_ = 0;
  };

  /// Bump-allocates `n` elements of trivial type T (8-byte aligned max),
  /// uninitialized. Valid until the enclosing Scope dies. The storage is a
  /// raw byte array, so implicit-lifetime scalars of any type may live in
  /// it — the same retained chunk can host float panels on one call and
  /// double accumulators on the next without aliasing hazards.
  template <typename T>
  std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivial_v<T> && alignof(T) <= kAlign,
                  "Workspace hosts small trivial scalars only");
    // Every allocation is a multiple of kAlign from a kAlign-aligned base,
    // so alignment holds for all T.
    const std::size_t bytes = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    return {reinterpret_cast<T*>(take(bytes)), n};
  }

  /// Like alloc but zero-filled.
  template <typename T>
  std::span<T> alloc_zero(std::size_t n) {
    auto s = alloc<T>(n);
    for (auto& v : s) v = T{};
    return s;
  }

 private:
  static constexpr std::size_t kAlign = alignof(double);

  // Raw-byte chunks (implicit-lifetime storage); allocated once and never
  // shrunk or moved while any allocation from them is live.
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;  ///< capacity in bytes
    std::size_t used = 0;  ///< bump offset in bytes
  };

  std::byte* take(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk currently bumping
};

}  // namespace fedbiad::tensor
