// Move-only type-erased callable with inline storage. The discrete-event
// queue runs one `void()` of these per simulated event, and the radio
// invokes its deliver and send-done hooks once per frame, so unlike
// std::function (16-byte small-object buffer in libstdc++) the buffer is
// sized to hold typical simulator callbacks -- `this` plus a few scalars,
// or a whole std::function forwarded from legacy call sites -- without
// touching the allocator. Larger or potentially-throwing-move callables fall back to a
// single heap box.
//
// SmallFunction<R(Args...)> is the general template; SmallCallback is the
// `void()` instance the event queue schedules.
#ifndef SCOOP_COMMON_SMALL_CALLBACK_H_
#define SCOOP_COMMON_SMALL_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace scoop {

template <typename Signature>
class SmallFunction;  // Only the R(Args...) specialization exists.

template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  /// Callables up to this size (and max_align_t alignment, and nothrow move)
  /// are stored inline; anything bigger is heap-boxed.
  static constexpr size_t kInlineBytes = 48;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    // A null function pointer or empty std::function yields an empty
    // SmallFunction, so callers' null checks reject it up front instead of
    // it exploding at invoke time. (Lambdas are not bool-testable, so this
    // costs the common path nothing.)
    if constexpr (std::is_constructible_v<bool, Fn&>) {
      if (!static_cast<bool>(f)) return;
    }
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &BoxedOps<Fn>::kOps;
    }
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  SmallFunction(SmallFunction&& other) noexcept { MoveFrom(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  ~SmallFunction() { Reset(); }

  /// Invokes the stored callable; undefined if empty.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  friend bool operator==(const SmallFunction& f, std::nullptr_t) { return !f; }
  friend bool operator==(std::nullptr_t, const SmallFunction& f) { return !f; }
  friend bool operator!=(const SmallFunction& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }
  friend bool operator!=(std::nullptr_t, const SmallFunction& f) {
    return static_cast<bool>(f);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Moves the representation from `from` into the raw buffer `to` and
    /// ends `from`'s lifetime; `from` must not be destroyed again. Null for
    /// trivially copyable callables: moving one is a buffer copy.
    void (*relocate)(void* from, void* to);
    /// Null for trivially destructible callables: nothing to run.
    void (*destroy)(void* self);
  };

  template <typename Fn>
  struct InlineOps {
    static R Invoke(void* self, Args&&... args) {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    }
    static void Relocate(void* from, void* to) {
      Fn* f = static_cast<Fn*>(from);
      ::new (to) Fn(std::move(*f));
      f->~Fn();
    }
    static void Destroy(void* self) { static_cast<Fn*>(self)->~Fn(); }
    // The event queue moves every callback into its slot and back out to
    // run it; a lambda capturing only pointers and scalars then costs a
    // buffer copy instead of two indirect calls.
    static constexpr bool kTrivial =
        std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
    static constexpr Ops kOps = {&Invoke, kTrivial ? nullptr : &Relocate,
                                 kTrivial ? nullptr : &Destroy};
  };

  template <typename Fn>
  struct BoxedOps {
    static R Invoke(void* self, Args&&... args) {
      return (**static_cast<Fn**>(self))(std::forward<Args>(args)...);
    }
    static void Relocate(void* from, void* to) {
      ::new (to) Fn*(*static_cast<Fn**>(from));
    }
    static void Destroy(void* self) { delete *static_cast<Fn**>(self); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(SmallFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Zero-filled so a whole-buffer copy never reads indeterminate bytes.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

/// The `void()` instance the event queue schedules.
using SmallCallback = SmallFunction<void()>;

}  // namespace scoop

#endif  // SCOOP_COMMON_SMALL_CALLBACK_H_
