// coopcr/sim/inline_fn.hpp
//
// Small-buffer, move-only callable — the engine's replacement for
// std::function on the event hot path (sim::EventQueue's callbacks).
//
// Every event the simulator schedules binds a member function to a handful
// of scalars ([this], [this, jid], [this, jid, target], ...), so the
// capture state is a few dozen bytes. std::function heap-allocates such
// captures (libstdc++'s inline buffer is two words) and is copyable, which
// forces every stored callback to be copy-constructible. InlineFunction
// stores captures up to `Capacity` bytes inline — zero allocation on the
// steady-state path — and is move-only, so a scheduled callback is moved
// into its slot once and never duplicated. Callables larger than
// `Capacity` (or with throwing moves) fall back to one heap box, preserving
// drop-in compatibility for tests and user code.
//
// The I/O path does not use it: SharedChannel and IoSubsystem report
// completions to one typed sink per instance with a 64-bit tag (see
// io/channel.hpp), because a per-request callable cost several moves and
// an indirect call per hop. Events keep InlineFunction, and the event queue
// builds each callable directly in its slab slot with emplace(): passing a
// by-value InlineFunction instead wrote the capture to the stack and read
// it back with a wider load the CPU could not forward from the narrower
// stores, the single hottest instruction of a strategy run.
//
// Relocation rule: an inline capture that is trivially copyable (every
// engine capture — `[this, jid]`, `[this, jid, target]` and the like) has
// no manager at all. Moving the function copies its storage bytes and
// destroying it does nothing, so the event slab grows by plain byte
// copies. Non-trivial inline captures and boxed ones keep a manager that
// relocates and destroys them.

#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace coopcr::sim {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;  // undefined — only the R(Args...) partial below exists

/// Move-only callable with `Capacity` bytes of inline storage.
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  /// Wrap any callable invocable as R(Args...). Small nothrow-movable
  /// callables live inline; everything else goes into one heap box.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    destroy();
    return *this;
  }

  /// Replace the held callable with `fn`, built directly in this object's
  /// storage: no temporary InlineFunction, no second copy of the capture.
  /// Passing an InlineFunction moves it in. If building `fn` throws (a
  /// boxed capture's allocation), this function is left empty.
  template <typename F,
            typename = std::enable_if_t<
                std::is_same_v<std::decay_t<F>, InlineFunction> ||
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void emplace(F&& fn) {
    destroy();
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "InlineFunction is move-only: emplace(std::move(fn))");
      move_from(fn);
    } else {
      construct(std::forward<F>(fn));
    }
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { destroy(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// Max capture size stored without allocation (for tests/docs).
  static constexpr std::size_t inline_capacity() { return Capacity; }

 private:
  enum class Op { kRelocate, kDestroy };

  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= Capacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  /// Inline trivially copyable captures need no manager: their bytes are
  /// the object, and destroying them is a no-op.
  template <typename F>
  static constexpr bool relocates_bytewise() {
    return fits_inline<F>() && std::is_trivially_copyable_v<F>;
  }

  template <typename F>
  struct InlineOps {
    template <typename G>
    static void construct(void* dst, G&& fn) {
      ::new (dst) F(std::forward<G>(fn));
    }
    static R invoke(void* self, Args&&... args) {
      return (*static_cast<F*>(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      F* fn = static_cast<F*>(self);
      if (op == Op::kRelocate) ::new (other) F(std::move(*fn));
      fn->~F();
    }
  };

  template <typename F>
  struct BoxedOps {
    template <typename G>
    static void construct(void* dst, G&& fn) {
      *static_cast<F**>(dst) = new F(std::forward<G>(fn));
    }
    static R invoke(void* self, Args&&... args) {
      return (**static_cast<F**>(self))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      F** box = static_cast<F**>(self);
      if (op == Op::kRelocate) {
        *static_cast<F**>(other) = *box;  // steal the box pointer
      } else {
        delete *box;
      }
    }
  };

  /// Build `fn` in storage_; the caller guarantees this object is empty.
  template <typename F>
  void construct(F&& fn) {
    using Decayed = std::decay_t<F>;
    using Ops = std::conditional_t<fits_inline<Decayed>(), InlineOps<Decayed>,
                                   BoxedOps<Decayed>>;
    Ops::construct(storage_, std::forward<F>(fn));
    invoke_ = &Ops::invoke;
    if constexpr (!relocates_bytewise<Decayed>()) manage_ = &Ops::manage;
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kRelocate, other.storage_, storage_);
      other.manage_ = nullptr;
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, Capacity);
    }
    other.invoke_ = nullptr;
  }

  void destroy() noexcept {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*manage_)(Op, void*, void*) noexcept = nullptr;
};

}  // namespace coopcr::sim
