//===- support/InlineFunction.h - Allocation-free type-erased callables ---===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Move-only type-erased callable with inline storage for small captures.
///
/// `std::function` heap-allocates for any capture larger than the
/// implementation's tiny internal buffer (two pointers on libstdc++).  The
/// simulation's completion plumbing — event closures, transfer and flow
/// completion callbacks, fetch continuations — constructs millions of these
/// per run, and every capture the codebase actually uses fits in a few
/// words.  InlineFunction gives those captures inline storage and falls back
/// to the heap, with a process-wide counter, for anything bigger, so the
/// schedule/fire/complete paths perform zero allocations in steady state.
///
/// Unlike std::function it is move-only, which lets it hold move-only
/// captures (unique_ptr, moved-in buffers) without the copyability tax.
///
/// The event kernel's EventCallback (sim/EventCallback.h) is the
/// `InlineFunction<void(), 48>` instantiation of this template.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SUPPORT_INLINEFUNCTION_H
#define DGSIM_SUPPORT_INLINEFUNCTION_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace dgsim {

/// Shared fallback accounting for every InlineFunction instantiation: one
/// process-wide counter so benches can diff "SBO heap fallbacks" across a
/// workload without enumerating signatures.  Atomic because `--jobs` runs
/// simulators on worker threads.
struct InlineFunctionStats {
  inline static std::atomic<uint64_t> HeapFallbacks{0};

  static uint64_t heapFallbacks() {
    return HeapFallbacks.load(std::memory_order_relaxed);
  }
};

template <typename Sig, size_t Capacity = 48> class InlineFunction;

/// Move-only `R(Args...)` callable with \p Capacity bytes of inline capture
/// storage.
template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
public:
  /// Inline capture budget in bytes.
  static constexpr size_t InlineCapacity = Capacity;

  /// \returns true when a callable of type \p F is stored inline (no heap).
  template <typename F> static constexpr bool fitsInline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= InlineCapacity && alignof(D) <= alignof(void *) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
  InlineFunction(F &&Fn) { // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fitsInline<F>()) {
      ::new (storage()) D(std::forward<F>(Fn));
      Invoke = [](void *P, Args... A) -> R {
        return (*static_cast<D *>(P))(std::forward<Args>(A)...);
      };
      Manage = [](void *Dst, void *Src) {
        D *S = static_cast<D *>(Src);
        if (Dst)
          ::new (Dst) D(std::move(*S));
        S->~D();
      };
    } else {
      ::new (storage()) D *(new D(std::forward<F>(Fn)));
      InlineFunctionStats::HeapFallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
      Invoke = [](void *P, Args... A) -> R {
        return (**static_cast<D **>(P))(std::forward<Args>(A)...);
      };
      Manage = [](void *Dst, void *Src) {
        D **S = static_cast<D **>(Src);
        if (Dst)
          ::new (Dst) D *(*S);
        else
          delete *S;
        *S = nullptr;
      };
    }
  }

  InlineFunction(InlineFunction &&Other) noexcept
      : Invoke(Other.Invoke), Manage(Other.Manage) {
    if (Manage)
      Manage(storage(), Other.storage());
    Other.Invoke = nullptr;
    Other.Manage = nullptr;
  }

  InlineFunction &operator=(InlineFunction &&Other) noexcept {
    if (this != &Other) {
      reset();
      Invoke = Other.Invoke;
      Manage = Other.Manage;
      if (Manage)
        Manage(storage(), Other.storage());
      Other.Invoke = nullptr;
      Other.Manage = nullptr;
    }
    return *this;
  }

  InlineFunction &operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction &) = delete;
  InlineFunction &operator=(const InlineFunction &) = delete;

  ~InlineFunction() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (Manage)
      Manage(nullptr, storage());
    Invoke = nullptr;
    Manage = nullptr;
  }

  explicit operator bool() const { return Invoke != nullptr; }

  R operator()(Args... A) {
    assert(Invoke && "invoking an empty InlineFunction");
    return Invoke(storage(), std::forward<Args>(A)...);
  }

  /// Total callables constructed on the heap-fallback path, process-wide
  /// across all InlineFunction instantiations.  Benches and tests diff this
  /// across a workload to prove the hot paths stayed allocation-free.
  static uint64_t heapFallbacks() {
    return InlineFunctionStats::heapFallbacks();
  }

private:
  void *storage() { return static_cast<void *>(&Storage); }

  using InvokeFn = R (*)(void *, Args...);
  /// Moves the callable from Src into Dst, or destroys it when Dst is null.
  using ManageFn = void (*)(void *Dst, void *Src);

  struct alignas(void *) Buffer {
    std::byte Bytes[InlineCapacity];
  };

  Buffer Storage;
  InvokeFn Invoke = nullptr;
  ManageFn Manage = nullptr;
};

} // namespace dgsim

#endif // DGSIM_SUPPORT_INLINEFUNCTION_H
