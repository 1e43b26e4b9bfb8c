#include "export/json_writer.h"

#include <cmath>

#include "common/string_util.h"

namespace secreta {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(const std::string& key) {
  Separate();
  AppendJsonString(&out_, key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  AppendJsonString(&out_, value);
}

void JsonWriter::Number(double value) {
  Separate();
  if (std::isfinite(value)) {
    out_ += StrFormat("%.12g", value);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
}

void JsonWriter::Int(int64_t value) {
  Separate();
  out_ += StrFormat("%lld", static_cast<long long>(value));
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

}  // namespace secreta
