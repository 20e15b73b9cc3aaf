//===-- support/ChunkedTable.h - Append-only table, stable slots -*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An append-only table whose entries never move. A growing std::vector
/// frees its storage under any reader that indexes it without the
/// appender's lock; here entries live in chunks that are allocated once
/// and kept until the table dies. Chunk K holds ChunkBase << K entries, so
/// a fixed directory of MaxChunks pointers covers every index and the
/// first chunk is the only allocation a small table makes.
///
/// Concurrency: one appender at a time (the owner serialises appends).
/// Readers may index any entry below size() concurrently with an append —
/// the release store of the new size publishes the constructed entry and
/// its chunk pointer, and no existing entry or chunk pointer is touched.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_CHUNKEDTABLE_H
#define TSR_SUPPORT_CHUNKEDTABLE_H

#include "support/Diag.h"

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>

namespace tsr {

template <typename T> class ChunkedTable {
public:
  ChunkedTable() = default;
  ChunkedTable(const ChunkedTable &) = delete;
  ChunkedTable &operator=(const ChunkedTable &) = delete;
  ~ChunkedTable() {
    const size_t N = size();
    for (size_t I = 0; I != N; ++I)
      (*this)[I].~T();
    std::allocator<T> Alloc;
    for (unsigned K = 0; K != MaxChunks && Chunks[K]; ++K)
      Alloc.deallocate(Chunks[K], ChunkBase << K);
  }

  size_t size() const { return Size.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  T &operator[](size_t I) { return *locate(I); }
  const T &operator[](size_t I) const { return *locate(I); }

  /// Appends a default-constructed entry and returns it.
  T &emplace_back() {
    const size_t I = Size.load(std::memory_order_relaxed);
    const unsigned K = chunkOf(I);
    if (K >= MaxChunks)
      fatal("chunked table is full (%zu entries)", I);
    if (!Chunks[K])
      Chunks[K] = std::allocator<T>().allocate(ChunkBase << K);
    T *E = new (locate(I)) T();
    Size.store(I + 1, std::memory_order_release);
    return *E;
  }

  template <typename Table, typename Elem> class Iter {
  public:
    Iter(Table *Tab, size_t I) : Tab(Tab), I(I) {}
    Elem &operator*() const { return (*Tab)[I]; }
    Iter &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const Iter &O) const { return I != O.I; }

  private:
    Table *Tab;
    size_t I;
  };
  Iter<ChunkedTable, T> begin() { return {this, 0}; }
  Iter<ChunkedTable, T> end() { return {this, size()}; }
  Iter<const ChunkedTable, const T> begin() const { return {this, 0}; }
  Iter<const ChunkedTable, const T> end() const { return {this, size()}; }

private:
  static constexpr size_t ChunkBase = 16;
  static constexpr unsigned MaxChunks = 28;
  static unsigned chunkOf(size_t I) {
    return static_cast<unsigned>(std::bit_width(I / ChunkBase + 1)) - 1;
  }
  static size_t chunkStart(unsigned K) {
    return ((size_t(1) << K) - 1) * ChunkBase;
  }
  T *locate(size_t I) const {
    const unsigned K = chunkOf(I);
    return Chunks[K] + (I - chunkStart(K));
  }

  T *Chunks[MaxChunks] = {};
  std::atomic<size_t> Size{0};
};

} // namespace tsr

#endif // TSR_SUPPORT_CHUNKEDTABLE_H
