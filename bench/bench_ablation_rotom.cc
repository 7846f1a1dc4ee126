// Ablation bench for the design choices DESIGN.md calls out (not a paper
// table, but the paper's Section 4/5 motivates each component):
//   - filtering only / weighting only / both (the two meta models),
//   - the L2 term of Eq. 2 on/off,
//   - sharpen_v1 (temperature) vs sharpen_v2 (pseudo-labeling) vs combined
//     for the SSL extension.
//
// Run on one representative dataset per domain (TextCLS, EDT, EM).

#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rotom_trainer.h"
#include "data/edt_gen.h"
#include "data/em_gen.h"
#include "data/textcls_gen.h"

namespace {

using namespace rotom;        // NOLINT
using namespace rotom::bench; // NOLINT

double RunVariant(eval::TaskContext& context, bool filtering, bool weighting,
                  bool l2, bool ssl, double ssl_mix) {
  // Reaches into the core trainer directly to toggle the ablation knobs the
  // TaskContext's stock methods don't expose.
  const auto& ds = context.dataset();
  double mean = 0.0;
  for (int64_t s = 1; s <= Seeds(); ++s) {
    Rng rng(static_cast<uint64_t>(s) * 2654435761ULL + 1);
    auto vocab = context.vocab_ptr();
    auto config = context.options().classifier;
    models::TransformerClassifier model(config, vocab, rng);
    // Start from the shared pre-trained encoder.
    std::map<std::string, const Tensor*> pretrained;
    for (const auto& [name, tensor] : context.PretrainedState()) {
      if (name.rfind("encoder.", 0) == 0) pretrained[name] = &tensor;
    }
    auto full = model.StateDict();
    for (auto& [name, tensor] : full) {
      auto it = pretrained.find(name);
      if (it != pretrained.end()) tensor.CopyFrom(*it->second);
    }
    model.LoadStateDict(full);

    core::RotomOptions options;
    options.epochs = Smoke() ? 1 : context.options().epochs;
    options.batch_size = context.options().batch_size;
    options.use_filtering = filtering;
    options.use_weighting = weighting;
    options.use_l2_term = l2;
    options.use_ssl = ssl;
    options.seed = static_cast<uint64_t>(s);
    // ssl_mix selects the sharpen variant: <0 -> v1 only (threshold > 1
    // disables v2), >1 -> v2 only handled via temperature 1 (identity);
    // 0 -> combined (default alternation).
    if (ssl_mix < 0) options.pseudo_threshold = 2.0;   // v2 never confident
    if (ssl_mix > 0) options.sharpen_temperature = 1.0;  // v1 = identity
    core::RotomTrainer trainer(&model, context.metric(), options);
    trainer.Train(ds, [&context](const std::string& text, Rng& r) {
      std::vector<std::string> out;
      out.push_back(context.RandomSimpleAugment(text, r));
      if (context.InvDaHasCached(text)) {
        out.push_back(context.InvDaSample(text, r));
      }
      return out;
    });
    mean += eval::EvaluateModel(model, ds.test, context.metric());
  }
  return mean / static_cast<double>(Seeds());
}

}  // namespace

int main() {
  struct Task {
    std::string label;
    data::TaskDataset dataset;
    eval::ExperimentOptions options;
  };
  std::vector<Task> tasks;
  {
    data::TextClsOptions d;
    d.train_size = Smoke() ? 40 : 100;
    d.test_size = Smoke() ? 60 : 200;
    d.unlabeled_size = Smoke() ? 100 : 800;
    d.seed = 2;
    tasks.push_back({"trec@100", data::MakeTextClsDataset("trec", d),
                     TextClsExperimentOptions()});
  }
  {
    data::EdtOptions d;
    d.budget = Smoke() ? 40 : 150;
    d.table_rows = Smoke() ? 120 : 400;
    d.seed = 2;
    tasks.push_back({"hospital@150", data::MakeEdtDataset("hospital", d),
                     EdtExperimentOptions()});
  }
  {
    data::EmOptions d;
    d.budget = Smoke() ? 60 : 200;
    d.test_size = Smoke() ? 60 : 150;
    d.unlabeled_size = Smoke() ? 100 : 800;
    d.seed = 2;
    tasks.push_back({"dblp_acm@200", data::MakeEmDataset("dblp_acm", d),
                     EmExperimentOptions()});
  }

  PrintTitle("Ablation: Rotom components");
  PrintHeader("variant", {"trec@100", "hospital@150", "dblp_acm@200"});
  struct Variant {
    std::string label;
    bool filtering, weighting, l2, ssl;
    double ssl_mix;  // -1: v1 only, +1: v2 only, 0: combined
  };
  const std::vector<Variant> variants = {
      {"no meta (augs only)", false, false, true, false, 0},
      {"filtering only", true, false, true, false, 0},
      {"weighting only", false, true, true, false, 0},
      {"full Rotom", true, true, true, false, 0},
      {"Rotom, no L2 term", true, true, false, false, 0},
      {"Rotom+SSL (v1+v2)", true, true, true, true, 0},
      {"Rotom+SSL (v1 only)", true, true, true, true, -1},
      {"Rotom+SSL (v2 only)", true, true, true, true, +1},
  };

  std::vector<eval::TaskContext> contexts;
  contexts.reserve(tasks.size());
  for (auto& task : tasks) {
    contexts.emplace_back(std::move(task.dataset), task.options);
    contexts.back().EnsureInvDa();
  }
  for (const auto& v : variants) {
    std::vector<double> row;
    for (auto& context : contexts) {
      row.push_back(RunVariant(context, v.filtering, v.weighting, v.l2,
                               v.ssl, v.ssl_mix));
    }
    PrintRow(v.label, row);
  }
  return 0;
}
