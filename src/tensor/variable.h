#ifndef ROTOM_TENSOR_VARIABLE_H_
#define ROTOM_TENSOR_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace rotom {

namespace internal_autograd {
struct VariableImpl;
}  // namespace internal_autograd

/// A node in the reverse-mode autodiff graph. A Variable wraps a value
/// Tensor plus (lazily) a gradient Tensor of the same shape. Ops in
/// ops.h build the graph; Backward() on a scalar Variable runs
/// back-propagation through every reachable node that requires gradients.
///
/// Copying a Variable is cheap (shared impl). Long-lived leaf Variables
/// (model parameters) are reused across training steps; each step's graph is
/// freed when the loss Variable goes out of scope.
///
/// Gradients: only a leaf's gradient is readable after Backward(). An op
/// that passes its gradient through unchanged (Reshape, AddScalar, the
/// first operand of Add and Sub, the attention masks) hands its own
/// gradient buffer to an interior parent that has none yet, and Transpose
/// hands over the transposed copy it makes. So once an interior node's
/// backward has run, its gradient may share storage with its parent's and
/// take the parent's other contributions. A graph is back-propagated once:
/// a second Backward() through an interior node would count its first
/// gradient again (as it always did).
class Variable {
 public:
  /// A null (undefined) variable.
  Variable() = default;

  /// Leaf variable wrapping `value`.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const Tensor& value() const;
  Tensor& value();

  /// The accumulated gradient; CHECK-fails if no gradient was computed.
  const Tensor& grad() const;
  /// Mutable access to the accumulated gradient (e.g. for clipping).
  Tensor& mutable_grad();
  /// True once a gradient tensor has been allocated for this node.
  bool has_grad() const;

  bool requires_grad() const;
  /// Makes this leaf a constant for good: requires_grad() is false from
  /// now on, so no gradient reaches it and optimizers skip it, and
  /// Module::LoadStateDict and CopyParametersFrom refuse to write it.
  void Freeze();

  const std::vector<int64_t>& shape() const { return value().shape(); }
  int64_t size() const { return value().size(); }

  /// Runs back-propagation from this scalar (single-element) variable,
  /// seeding d(this)/d(this) = 1.
  void Backward() const;

  /// Clears this node's gradient (leaves only; graph nodes are transient).
  void ZeroGrad() const;

  /// Returns a new leaf sharing this value tensor but cut off from the
  /// graph (no gradient flows through it).
  Variable Detach() const;

  /// Internal access for op implementations.
  std::shared_ptr<internal_autograd::VariableImpl> impl() const { return impl_; }
  explicit Variable(std::shared_ptr<internal_autograd::VariableImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<internal_autograd::VariableImpl> impl_;
};

/// RAII scope that disables graph construction: ops executed while a
/// NoGradGuard is alive produce constant results (no parents, no backward).
/// Used for inference passes inside training loops (e.g. computing the
/// filtering model's KL features from the target model's predictions).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True while any guard is alive on this thread.
  static bool Active();

 private:
  bool previous_;
};

namespace internal_autograd {

/// Shared state behind a Variable. `backward_fn` reads `grad` and adds it
/// into each parent's grad: a parent with no gradient yet gets one written
/// (or, for an interior parent of a pass-through op, takes `grad` itself),
/// one that has a gradient is accumulated into. Leaves are exactly the
/// nodes without a `backward_fn`.
struct VariableImpl {
  Tensor value;
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<VariableImpl>> parents;
  std::function<void(VariableImpl&)> backward_fn;

  /// Allocates the gradient tensor on first use, zero-filled.
  Tensor& MutableGrad() {
    if (!grad.defined()) grad = Tensor(value.shape());
    return grad;
  }
};

/// Creates a graph node whose value was computed from `parents`.
/// requires_grad is inherited (true if any parent requires it).
Variable MakeNode(Tensor value,
                  std::vector<std::shared_ptr<VariableImpl>> parents,
                  std::function<void(VariableImpl&)> backward_fn);

}  // namespace internal_autograd

}  // namespace rotom

#endif  // ROTOM_TENSOR_VARIABLE_H_
