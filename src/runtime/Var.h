//===-- runtime/Var.h - Instrumented plain shared variables ----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tsr::Var<T> is an instrumented *non-atomic* shared variable: accesses
/// are invisible operations (no scheduling point — invisible regions run
/// in parallel, §3.1) but are checked by the happens-before race detector,
/// exactly like tsan's compile-time instrumentation of plain loads and
/// stores. An optional name makes race reports readable.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RUNTIME_VAR_H
#define TSR_RUNTIME_VAR_H

#include "runtime/Session.h"

#include <atomic>
#include <type_traits>

namespace tsr {

/// Instrumented plain variable.
template <typename T> class Var {
  static_assert(std::is_trivially_copyable_v<T>,
                "tsr::Var requires a trivially copyable type");

public:
  explicit Var(T Init = T(), const char *Name = nullptr) : Value(Init) {
    if (Name)
      if (Session *S = Session::current())
        S->race().registerName(addr(), sizeof(T), Name);
  }

  ~Var() {
    if (Session *S = Session::current()) {
      S->race().forgetRange(addr(), sizeof(T));
      S->race().unregisterName(addr());
    }
  }

  Var(const Var &) = delete;
  Var &operator=(const Var &) = delete;

  /// Instrumented read.
  T get() const {
    const AccessContext C = Session::currentAccessContext();
    if (C.S)
      C.S->race().onPlainRead(C.T, addr(), sizeof(T));
    if constexpr (HostAtomic)
      return std::atomic_ref<T>(const_cast<T &>(Value))
          .load(std::memory_order_relaxed);
    else
      return Value;
  }

  /// Instrumented write.
  void set(const T &V) {
    const AccessContext C = Session::currentAccessContext();
    if (C.S)
      C.S->race().onPlainWrite(C.T, addr(), sizeof(T));
    if constexpr (HostAtomic)
      std::atomic_ref<T>(Value).store(V, std::memory_order_relaxed);
    else
      Value = V;
  }

  operator T() const { return get(); }
  Var &operator=(const T &V) {
    set(V);
    return *this;
  }

private:
  /// Invisible operations of different threads run in parallel, so a
  /// racy program — the detector's subject — really does touch Value
  /// from two host threads at once. For scalars the host access is a
  /// relaxed atomic (a plain move on mainstream targets), which keeps
  /// the host program free of undefined behaviour and ThreadSanitizer
  /// quiet without changing what the race detector reports.
  static constexpr bool HostAtomic =
      std::atomic_ref<T>::is_always_lock_free &&
      std::atomic_ref<T>::required_alignment == alignof(T);

  uintptr_t addr() const { return reinterpret_cast<uintptr_t>(&Value); }

  T Value;
};

/// Instrumented access to arbitrary storage (arrays, struct fields).
template <typename T> T plainRead(const T &Ref) {
  const AccessContext C = Session::currentAccessContext();
  if (C.S)
    C.S->race().onPlainRead(C.T, reinterpret_cast<uintptr_t>(&Ref),
                            sizeof(T));
  return Ref;
}

template <typename T> void plainWrite(T &Ref, const T &V) {
  const AccessContext C = Session::currentAccessContext();
  if (C.S)
    C.S->race().onPlainWrite(C.T, reinterpret_cast<uintptr_t>(&Ref),
                             sizeof(T));
  Ref = V;
}

} // namespace tsr

#endif // TSR_RUNTIME_VAR_H
