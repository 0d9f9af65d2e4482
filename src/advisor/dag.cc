#include "advisor/dag.h"

namespace xia {

GeneralizationDag GeneralizationDag::Build(
    const std::vector<CandidateIndex>& candidates, ContainmentCache* cache) {
  GeneralizationDag dag;
  size_t n = candidates.size();
  dag.nodes_.resize(n);

  std::vector<PatternId> ids;
  ids.reserve(n);
  for (const CandidateIndex& c : candidates) {
    ids.push_back(cache->Intern(c.def.pattern));
  }
  // Strict-ancestor matrix: ancestor[i][j] = i strictly contains j.
  std::vector<std::vector<bool>> ancestor(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const CandidateIndex& a = candidates[i];
      const CandidateIndex& b = candidates[j];
      if (a.def.collection != b.def.collection || a.def.type != b.def.type) {
        continue;
      }
      ancestor[i][j] =
          cache->Contains(ids[i], ids[j]) && !cache->Contains(ids[j], ids[i]);
    }
  }
  // Immediate edges: i -> j with no k strictly between.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!ancestor[i][j]) continue;
      bool immediate = true;
      for (size_t k = 0; k < n && immediate; ++k) {
        if (k != i && k != j && ancestor[i][k] && ancestor[k][j]) {
          immediate = false;
        }
      }
      if (immediate) {
        dag.nodes_[i].children.push_back(static_cast<int>(j));
        dag.nodes_[j].parents.push_back(static_cast<int>(i));
      }
    }
  }
  return dag;
}

std::vector<int> GeneralizationDag::Roots() const {
  std::vector<int> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parents.empty()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> GeneralizationDag::Leaves() const {
  std::vector<int> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].children.empty()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::string GeneralizationDag::ToDot(
    const std::vector<CandidateIndex>& candidates) const {
  std::string out = "digraph generalization {\n  rankdir=TB;\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    out += "  n" + std::to_string(i) + " [label=\"" +
           candidates[i].def.pattern.ToString() + "\\n" +
           ValueTypeName(candidates[i].def.type) + "\"";
    if (candidates[i].from_generalization) {
      out += " style=dashed";
    }
    out += "];\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int child : nodes_[i].children) {
      out += "  n" + std::to_string(i) + " -> n" + std::to_string(child) +
             ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string GeneralizationDag::ToText(
    const std::vector<CandidateIndex>& candidates) const {
  std::string out;
  // Depth-first from every root, indenting children. Shared subtrees are
  // re-printed (it is a DAG), which is fine for display.
  struct Walker {
    const GeneralizationDag* dag;
    const std::vector<CandidateIndex>* candidates;
    std::string* out;
    void Walk(int node, int depth) {
      for (int i = 0; i < depth; ++i) *out += "  ";
      *out += (*candidates)[static_cast<size_t>(node)].ToString() + "\n";
      for (int child : dag->nodes_[static_cast<size_t>(node)].children) {
        Walk(child, depth + 1);
      }
    }
  };
  Walker walker{this, &candidates, &out};
  for (int root : Roots()) walker.Walk(root, 0);
  return out;
}

}  // namespace xia
