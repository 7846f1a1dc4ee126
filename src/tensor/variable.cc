#include "tensor/variable.h"

#include <unordered_set>

namespace rotom {

using internal_autograd::VariableImpl;

Variable::Variable(Tensor value, bool requires_grad) {
  impl_ = std::make_shared<VariableImpl>();
  impl_->value = std::move(value);
  impl_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  ROTOM_CHECK(defined());
  return impl_->value;
}

Tensor& Variable::value() {
  ROTOM_CHECK(defined());
  return impl_->value;
}

const Tensor& Variable::grad() const {
  ROTOM_CHECK(defined());
  ROTOM_CHECK_MSG(impl_->grad.defined(), "gradient not computed");
  return impl_->grad;
}

Tensor& Variable::mutable_grad() {
  ROTOM_CHECK(defined());
  ROTOM_CHECK_MSG(impl_->grad.defined(), "gradient not computed");
  return impl_->grad;
}

bool Variable::has_grad() const { return defined() && impl_->grad.defined(); }

bool Variable::requires_grad() const {
  ROTOM_CHECK(defined());
  return impl_->requires_grad;
}

void Variable::Freeze() {
  ROTOM_CHECK(defined());
  ROTOM_CHECK_MSG(!impl_->backward_fn, "only a leaf can be frozen");
  impl_->requires_grad = false;
}

void Variable::ZeroGrad() const {
  ROTOM_CHECK(defined());
  if (impl_->grad.defined()) impl_->grad.Fill(0.0f);
}

Variable Variable::Detach() const {
  ROTOM_CHECK(defined());
  return Variable(impl_->value, /*requires_grad=*/false);
}

namespace {

// Iterative post-order topological sort (avoids deep recursion on long
// training graphs).
void TopoSort(VariableImpl* root, std::vector<VariableImpl*>& order) {
  std::unordered_set<VariableImpl*> visited;
  std::vector<std::pair<VariableImpl*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      VariableImpl* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  ROTOM_CHECK(defined());
  ROTOM_CHECK_MSG(impl_->value.size() == 1,
                  "Backward() requires a scalar variable");
  ROTOM_CHECK_MSG(impl_->requires_grad,
                  "Backward() on a variable with no grad path");

  std::vector<VariableImpl*> order;
  TopoSort(impl_.get(), order);

  impl_->MutableGrad().Fill(1.0f);
  // Post-order gives children before parents; walk in reverse so each node's
  // gradient is complete before it propagates to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VariableImpl* node = *it;
    if (node->backward_fn && node->grad.defined()) {
      node->backward_fn(*node);
    }
  }
}

namespace {

thread_local bool g_no_grad_active = false;

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_no_grad_active) {
  g_no_grad_active = true;
}

NoGradGuard::~NoGradGuard() { g_no_grad_active = previous_; }

bool NoGradGuard::Active() { return g_no_grad_active; }

namespace internal_autograd {

Variable MakeNode(Tensor value,
                  std::vector<std::shared_ptr<VariableImpl>> parents,
                  std::function<void(VariableImpl&)> backward_fn) {
  auto impl = std::make_shared<VariableImpl>();
  impl->value = std::move(value);
  bool needs_grad = false;
  if (!NoGradGuard::Active()) {
    for (const auto& p : parents) needs_grad = needs_grad || p->requires_grad;
  }
  impl->requires_grad = needs_grad;
  if (needs_grad) {
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(impl));
}

}  // namespace internal_autograd

}  // namespace rotom
