#include "nn/module.h"

#include <map>

namespace rotom {
namespace nn {

std::vector<Variable> Module::Parameters() const {
  std::vector<Variable> out;
  for (const auto& p : params_) out.push_back(p.var);
  for (const auto& [name, sub] : submodules_) {
    auto child = sub->Parameters();
    out.insert(out.end(), child.begin(), child.end());
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& v : Parameters()) n += v.size();
  return n;
}

void Module::ZeroGrad() const {
  for (const auto& v : Parameters()) v.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (const auto& [name, sub] : submodules_) sub->SetTraining(training);
}

std::vector<std::pair<std::string, Variable>> Module::NamedParameters(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, Variable>> out;
  for (const auto& p : params_) out.emplace_back(prefix + p.name, p.var);
  for (const auto& [name, sub] : submodules_) {
    auto child = sub->NamedParameters(prefix + name + ".");
    out.insert(out.end(), std::make_move_iterator(child.begin()),
               std::make_move_iterator(child.end()));
  }
  return out;
}

NamedTensors Module::StateDict(const std::string& prefix) const {
  NamedTensors out;
  for (const auto& [name, var] : NamedParameters(prefix))
    out.emplace_back(name, var.value().Clone());
  return out;
}

void Module::VisitModules(
    const std::function<void(const std::string& prefix, Module& module)>&
        visit,
    const std::string& prefix) {
  visit(prefix, *this);
  for (const auto& [name, sub] : submodules_)
    sub->VisitModules(visit, prefix + name + ".");
}

void Module::LoadStateDict(const NamedTensors& state,
                           const std::string& prefix) {
  std::map<std::string, const Tensor*> by_name;
  for (const auto& [name, tensor] : state) by_name[name] = &tensor;
  for (auto& [name, var] : NamedParameters(prefix)) {
    auto it = by_name.find(name);
    ROTOM_CHECK_MSG(it != by_name.end(), name.c_str());
    ROTOM_CHECK_MSG(var.requires_grad(), ("frozen parameter " + name).c_str());
    var.value().CopyFrom(*it->second);
  }
}

void Module::CopyParametersFrom(const Module& other) {
  auto mine = Parameters();
  auto theirs = other.Parameters();
  ROTOM_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    ROTOM_CHECK_MSG(mine[i].requires_grad(), "frozen parameter");
    mine[i].value().CopyFrom(theirs[i].value());
  }
}

Variable& Module::RegisterParameter(std::string name, Tensor init) {
  params_.push_back({std::move(name), Variable(std::move(init), true)});
  return params_.back().var;
}

void Module::RegisterSubmodule(std::string name, Module* module) {
  ROTOM_CHECK(module != nullptr);
  submodules_.emplace_back(std::move(name), module);
}

}  // namespace nn
}  // namespace rotom
