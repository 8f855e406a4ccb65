// PdmsNode: the application-level Personal Data Management System.
//
// The protocol layers identify nodes by Directory index; PdmsNode is the
// personal-data side of the same node: a small local store for the data
// the three use cases of the paper exercise — profile concepts (use
// case 2), geo-localized sensor readings (use case 1) and numeric
// attributes for aggregate queries (use case 3). All data stays local until
// an application-level protocol, gated by VerifyBeforeDisclosure,
// releases a specific, minimal piece of it to verified actors.

#ifndef SEP2P_NODE_PDMS_NODE_H_
#define SEP2P_NODE_PDMS_NODE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace sep2p::node {

// One geo-localized sensed value (e.g. traffic speed at a position).
struct SensorReading {
  double x = 0;        // normalized longitude in [0,1)
  double y = 0;        // normalized latitude in [0,1)
  double value = 0;    // the measurement
  uint64_t time = 0;   // logical timestamp
};

class PdmsNode {
 public:
  explicit PdmsNode(uint32_t directory_index)
      : directory_index_(directory_index) {}

  uint32_t directory_index() const { return directory_index_; }

  // --- profile concepts (use case 2) -----------------------------------
  void AddConcept(const std::string& concept_name) {
    concepts_.insert(concept_name);
  }
  bool HasConcept(const std::string& concept_name) const {
    return concepts_.count(concept_name) > 0;
  }
  const std::set<std::string>& concepts() const { return concepts_; }

  // --- sensed data (use case 1) ----------------------------------------
  void AddReading(const SensorReading& reading) {
    readings_.push_back(reading);
  }
  const std::vector<SensorReading>& readings() const { return readings_; }

  // --- numeric attributes for aggregate queries (use case 3) -----------
  void SetAttribute(const std::string& name, double value) {
    attributes_[name] = value;
  }
  std::optional<double> GetAttribute(const std::string& name) const {
    auto it = attributes_.find(name);
    if (it == attributes_.end()) return std::nullopt;
    return it->second;
  }

  // Inbox for diffusion messages delivered by target finders.
  void Deliver(const std::string& message) { inbox_.push_back(message); }
  const std::vector<std::string>& inbox() const { return inbox_; }

 private:
  uint32_t directory_index_;
  std::set<std::string> concepts_;
  std::vector<SensorReading> readings_;
  std::map<std::string, double> attributes_;
  std::vector<std::string> inbox_;
};

}  // namespace sep2p::node

#endif  // SEP2P_NODE_PDMS_NODE_H_
