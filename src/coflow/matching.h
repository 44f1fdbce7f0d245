// Maximum bipartite matching (Hopcroft–Karp).
//
// Substrate for the Birkhoff–von-Neumann / Inukai clearance decomposition:
// each circuit configuration of the OCS is a matching between output ports
// and input ports, and the clearance algorithm repeatedly extracts perfect
// matchings from the positive entries of a (padded) traffic matrix. Sunflow
// (OcsFabric) matches each coflow's startable flows per plane the same way,
// tens of thousands of times per run, so a graph can be cleared and
// regrown across calls.
#pragma once

#include <cstdint>
#include <vector>

namespace cosched {

/// Bipartite graph with `num_left` left vertices and `num_right` right
/// vertices, addressed by dense indices.
class BipartiteGraph {
 public:
  BipartiteGraph(std::size_t num_left, std::size_t num_right);

  /// Remove every vertex and edge, keeping the adjacency lists' storage:
  /// a graph rebuilt per call otherwise allocates once per left vertex.
  void clear() {
    num_left_ = 0;
    num_right_ = 0;
  }
  /// Append a left vertex (no edges yet) / a right vertex; returns its
  /// index.
  std::size_t add_left() {
    if (adj_.size() == num_left_) {
      adj_.emplace_back();
    } else {
      adj_[num_left_].clear();
    }
    return num_left_++;
  }
  std::size_t add_right() { return num_right_++; }

  void add_edge(std::size_t left, std::size_t right);

  [[nodiscard]] std::size_t num_left() const { return num_left_; }
  [[nodiscard]] std::size_t num_right() const { return num_right_; }
  [[nodiscard]] const std::vector<std::size_t>& neighbors(
      std::size_t left) const {
    return adj_[left];
  }

 private:
  std::vector<std::vector<std::size_t>> adj_;
  std::size_t num_left_;
  std::size_t num_right_;
};

/// Result of a maximum matching: match_left[l] = matched right vertex or
/// kUnmatched; likewise match_right.
struct MatchingResult {
  static constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);
  std::vector<std::size_t> match_left;
  std::vector<std::size_t> match_right;
  std::size_t size = 0;
};

/// Hopcroft–Karp: O(E * sqrt(V)).
[[nodiscard]] MatchingResult maximum_bipartite_matching(
    const BipartiteGraph& graph);

}  // namespace cosched
