#ifndef ROTOM_NN_MODULE_H_
#define ROTOM_NN_MODULE_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/serialize.h"
#include "tensor/variable.h"

namespace rotom {
namespace nn {

/// Base class for neural-network building blocks. A module owns leaf
/// parameter Variables (requires_grad=true unless frozen) and may register
/// child modules; Parameters() flattens the tree for the optimizer,
/// StateDict() produces a named checkpoint (dotted paths, as in PyTorch).
/// A frozen parameter (Variable::Freeze) may share its storage with
/// something the module does not own, as a model built by
/// serve::Snapshot::BuildModel does, so nothing here writes one.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<Variable> Parameters() const;

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

  /// Clears gradients of every parameter.
  void ZeroGrad() const;

  /// Sets training/eval mode recursively (affects dropout).
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Every parameter under its dotted path rooted at `prefix`, in
  /// StateDict() order. The Variables share storage with the module.
  std::vector<std::pair<std::string, Variable>> NamedParameters(
      const std::string& prefix = "") const;

  /// Named parameter snapshot (NamedParameters() with every value cloned).
  NamedTensors StateDict(const std::string& prefix = "") const;

  /// Calls visit(prefix, module) on this module, then on every descendant
  /// depth first in registration order. `prefix` is what the module's own
  /// parameter names are prefixed with in StateDict(): `prefix` itself
  /// here, "encoder.layer0.attn.q." for a Linear nested that deep.
  void VisitModules(
      const std::function<void(const std::string& prefix, Module& module)>&
          visit,
      const std::string& prefix = "");

  /// Copies values from a checkpoint produced by StateDict() of an
  /// identically-structured module. CHECK-fails on name/shape mismatch and
  /// on a frozen parameter.
  void LoadStateDict(const NamedTensors& state, const std::string& prefix = "");

  /// Deep-copies parameter values from another identically-structured
  /// module. CHECK-fails on a frozen parameter.
  void CopyParametersFrom(const Module& other);

 protected:
  /// Registers a trainable parameter initialized with `init` and returns a
  /// reference valid for the module's lifetime.
  Variable& RegisterParameter(std::string name, Tensor init);

  /// Registers a child module (not owned).
  void RegisterSubmodule(std::string name, Module* module);

 private:
  struct NamedParam {
    std::string name;
    Variable var;
  };

  std::deque<NamedParam> params_;  // deque: stable references
  std::vector<std::pair<std::string, Module*>> submodules_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace rotom

#endif  // ROTOM_NN_MODULE_H_
