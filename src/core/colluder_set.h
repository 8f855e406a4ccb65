// ColluderSet: one placement of the covert coalition, as a value.
//
// The paper's effectiveness figures average over colluder placements
// drawn again at random (§4.1-4.2). A placement is immutable once drawn:
// the coalition's directory handles in ascending order plus an N-bit
// membership bitset, so trials that read different placements can share
// one directory. strategies::SampleColluders draws it, and
// ProtocolContext::colluders points the adversary models at it.

#ifndef SEP2P_CORE_COLLUDER_SET_H_
#define SEP2P_CORE_COLLUDER_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sep2p::core {

class ColluderSet {
 public:
  ColluderSet() = default;
  // `handles` ascending, each below `node_count` (the directory size
  // the placement was drawn over).
  ColluderSet(std::vector<uint32_t> handles, size_t node_count)
      : handles_(std::move(handles)), members_(node_count, false) {
    for (uint32_t idx : handles_) members_[idx] = true;
  }

  // Nodes added to the directory after the draw never collude.
  bool contains(uint32_t index) const {
    return index < members_.size() && members_[index];
  }
  const std::vector<uint32_t>& handles() const { return handles_; }
  size_t size() const { return handles_.size(); }

 private:
  std::vector<uint32_t> handles_;  // ascending
  std::vector<bool> members_;
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_COLLUDER_SET_H_
