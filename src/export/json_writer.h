// Minimal dependency-free JSON value builder. Split out of json_export.h so
// low-level consumers (obs/ telemetry sinks, serve/ wire encoding,
// robust/ checkpoints) can build JSON without pulling in the experiment and
// service-metrics headers — obs/ in particular must never reach the raw-data
// headers through its include graph (tools/lint/check_privacy_flow.py,
// rule obs-no-sensitive).

#ifndef SECRETA_EXPORT_JSON_WRITER_H_
#define SECRETA_EXPORT_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace secreta {

/// \brief Minimal JSON value builder (objects, arrays, scalars).
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("are"); w.Number(0.5);
///   w.Key("tags"); w.BeginArray(); w.String("x"); w.EndArray();
///   w.EndObject();
///   std::string out = w.TakeString();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Writes an object key (must be inside an object).
  void Key(const std::string& key);
  void String(const std::string& value);
  void Number(double value);
  void Int(int64_t value);
  void Bool(bool value);
  void Null();

  /// The serialized document.
  std::string TakeString() { return std::move(out_); }

 private:
  void Separate();

  std::string out_;
  std::vector<bool> needs_comma_;  // per open container
  bool after_key_ = false;
};

}  // namespace secreta

#endif  // SECRETA_EXPORT_JSON_WRITER_H_
