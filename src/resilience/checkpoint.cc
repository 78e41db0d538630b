#include "resilience/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "util/fs.h"

namespace microrec::resilience {

namespace {

// ---- Minimal JSON reader for the checkpoint's own records. ----
//
// The writer below emits a strict subset of JSON — flat objects whose
// values are strings, numbers, or arrays of numbers — so the reader only
// has to understand that subset (plus standard string escapes, since
// config renderings and error messages pass through AppendJsonEscaped).

struct JsonValue {
  enum class Kind { kString, kNumber, kNumberArray } kind = Kind::kString;
  std::string string_value;
  double number_value = 0.0;
  std::string number_text;  // exact token, for integer round-trips
  std::vector<double> array_values;
  std::vector<std::string> array_texts;
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : p_(text.data()), end_(text.data() + text.size()) {}

  Result<std::map<std::string, JsonValue>> ReadObject() {
    std::map<std::string, JsonValue> object;
    SkipWs();
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Consume('}')) return object;
    while (true) {
      SkipWs();
      Result<std::string> key = ReadString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      Result<JsonValue> value = ReadValue();
      if (!value.ok()) return value.status();
      object.emplace(std::move(*key), std::move(*value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    return object;
  }

 private:
  Status Err(const char* what) const {
    return Status::InvalidArgument(std::string("checkpoint JSON: ") + what);
  }

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) ++p_;
  }
  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ReadValue() {
    if (p_ >= end_) return Err("unexpected end");
    if (*p_ == '"') {
      Result<std::string> str = ReadString();
      if (!str.ok()) return str.status();
      JsonValue value;
      value.kind = JsonValue::Kind::kString;
      value.string_value = std::move(*str);
      return value;
    }
    if (*p_ == '[') {
      ++p_;
      JsonValue value;
      value.kind = JsonValue::Kind::kNumberArray;
      SkipWs();
      if (Consume(']')) return value;
      while (true) {
        SkipWs();
        Result<std::pair<double, std::string>> num = ReadNumber();
        if (!num.ok()) return num.status();
        value.array_values.push_back(num->first);
        value.array_texts.push_back(std::move(num->second));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Err("expected ',' or ']'");
      }
      return value;
    }
    Result<std::pair<double, std::string>> num = ReadNumber();
    if (!num.ok()) return num.status();
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number_value = num->first;
    value.number_text = std::move(num->second);
    return value;
  }

  Result<std::string> ReadString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= end_) return Err("dangling escape");
      char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // The writer only \u-escapes control characters, so a one-byte
          // decode suffices; anything wider is preserved as UTF-8 by the
          // writer and never escaped.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            return Err("unsupported \\u escape above 0x7f");
          }
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    if (!Consume('"')) return Err("unterminated string");
    return out;
  }

  Result<std::pair<double, std::string>> ReadNumber() {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                         *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) return Err("expected number");
    std::string text(start, static_cast<size_t>(p_ - start));
    char* parse_end = nullptr;
    double value = std::strtod(text.c_str(), &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') return Err("bad number");
    return std::make_pair(value, std::move(text));
  }

  const char* p_;
  const char* end_;
};

std::string NumberToJson(double value) { return obs::JsonNumber(value); }

// Full-precision rendering so aps/times round-trip bit-exactly.
std::string PreciseToJson(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no inf/nan literals; obs::JsonNumber's convention (degrade
  // to 0) keeps the file parseable.
  for (const char* c = buf; *c; ++c) {
    if ((*c >= 'a' && *c <= 'z' && *c != 'e') ||
        (*c >= 'A' && *c <= 'Z' && *c != 'E')) {
      return NumberToJson(value);
    }
  }
  return buf;
}

const JsonValue* FindKey(const std::map<std::string, JsonValue>& object,
                         const char* key) {
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Result<CheckpointRecord> RecordFromJson(
    const std::map<std::string, JsonValue>& object) {
  CheckpointRecord record;
  const JsonValue* fingerprint = FindKey(object, "fingerprint");
  if (fingerprint == nullptr ||
      fingerprint->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("checkpoint record lacks fingerprint");
  }
  record.fingerprint = fingerprint->string_value;
  if (const JsonValue* config = FindKey(object, "config")) {
    record.config = config->string_value;
  }
  if (const JsonValue* code = FindKey(object, "code")) {
    Result<StatusCode> parsed = ParseStatusCode(code->string_value);
    if (!parsed.ok()) return parsed.status();
    record.code = *parsed;
  }
  if (const JsonValue* error = FindKey(object, "error")) {
    record.error = error->string_value;
  }
  if (const JsonValue* users = FindKey(object, "users")) {
    if (users->kind != JsonValue::Kind::kNumberArray) {
      return Status::InvalidArgument("checkpoint users must be an array");
    }
    record.users.reserve(users->array_texts.size());
    for (const std::string& text : users->array_texts) {
      record.users.push_back(std::strtoull(text.c_str(), nullptr, 10));
    }
  }
  if (const JsonValue* aps = FindKey(object, "aps")) {
    if (aps->kind != JsonValue::Kind::kNumberArray) {
      return Status::InvalidArgument("checkpoint aps must be an array");
    }
    record.aps = aps->array_values;
  }
  if (record.users.size() != record.aps.size()) {
    return Status::InvalidArgument(
        "checkpoint users/aps length mismatch for " + record.fingerprint);
  }
  if (const JsonValue* ttime = FindKey(object, "ttime")) {
    record.ttime_seconds = ttime->number_value;
  }
  if (const JsonValue* etime = FindKey(object, "etime")) {
    record.etime_seconds = etime->number_value;
  }
  return record;
}

}  // namespace

std::string CheckpointRecordToJson(const CheckpointRecord& record) {
  std::string out = "{\"fingerprint\":\"";
  obs::AppendJsonEscaped(record.fingerprint, &out);
  out += "\",\"config\":\"";
  obs::AppendJsonEscaped(record.config, &out);
  out += "\",\"code\":\"";
  out += StatusCodeName(record.code);
  out += "\",\"error\":\"";
  obs::AppendJsonEscaped(record.error, &out);
  out += "\",\"users\":[";
  for (size_t i = 0; i < record.users.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(record.users[i]);
  }
  out += "],\"aps\":[";
  for (size_t i = 0; i < record.aps.size(); ++i) {
    if (i > 0) out += ',';
    out += PreciseToJson(record.aps[i]);
  }
  out += "],\"ttime\":";
  out += PreciseToJson(record.ttime_seconds);
  out += ",\"etime\":";
  out += PreciseToJson(record.etime_seconds);
  out += '}';
  return out;
}

Result<std::vector<CheckpointRecord>> SweepCheckpoint::Parse(
    const std::string& content, const std::string& expected_key) {
  std::vector<CheckpointRecord> records;
  std::istringstream stream(content);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty()) continue;
    JsonReader reader(line);
    Result<std::map<std::string, JsonValue>> object = reader.ReadObject();
    if (!object.ok()) {
      // A torn trailing line means the process died mid-write before the
      // atomic rename landed; everything before it is intact.
      if (stream.eof()) break;
      return Status::InvalidArgument(
          "checkpoint line " + std::to_string(line_number) + ": " +
          object.status().message());
    }
    if (!saw_header) {
      const JsonValue* schema = FindKey(*object, "schema");
      if (schema == nullptr ||
          schema->string_value != kSweepCheckpointSchema) {
        return Status::InvalidArgument(
            "not a " + std::string(kSweepCheckpointSchema) + " file");
      }
      const JsonValue* key = FindKey(*object, "key");
      if (key == nullptr || key->string_value != expected_key) {
        return Status::FailedPrecondition(
            "checkpoint key mismatch: file has \"" +
            (key != nullptr ? key->string_value : std::string("<none>")) +
            "\", sweep expects \"" + expected_key + '"');
      }
      saw_header = true;
      continue;
    }
    Result<CheckpointRecord> record = RecordFromJson(*object);
    if (!record.ok()) {
      return Status::InvalidArgument(
          "checkpoint line " + std::to_string(line_number) + ": " +
          record.status().message());
    }
    records.push_back(std::move(*record));
  }
  if (!saw_header && line_number > 0) {
    return Status::InvalidArgument("checkpoint has no valid header line");
  }
  return records;
}

Result<SweepCheckpoint> SweepCheckpoint::Open(std::string path,
                                              std::string key) {
  SweepCheckpoint checkpoint;
  checkpoint.path_ = std::move(path);
  checkpoint.key_ = std::move(key);

  std::ifstream file(checkpoint.path_);
  if (file) {
    std::ostringstream content;
    content << file.rdbuf();
    Result<std::vector<CheckpointRecord>> records =
        Parse(content.str(), checkpoint.key_);
    if (!records.ok()) return records.status();
    checkpoint.records_ = std::move(*records);
    for (size_t i = 0; i < checkpoint.records_.size(); ++i) {
      checkpoint.index_[checkpoint.records_[i].fingerprint] = i;
    }
    obs::MetricsRegistry::Global()
        .GetCounter("resilience.checkpoint.loaded_records")
        ->Add(checkpoint.records_.size());
  }
  return checkpoint;
}

const CheckpointRecord* SweepCheckpoint::Find(
    const std::string& fingerprint) const {
  auto it = index_.find(fingerprint);
  return it == index_.end() ? nullptr : &records_[it->second];
}

Status SweepCheckpoint::Append(CheckpointRecord record) {
  MICROREC_FAULT_POINT(kSiteCheckpointWrite);
  auto it = index_.find(record.fingerprint);
  if (it != index_.end()) {
    records_[it->second] = std::move(record);
  } else {
    index_[record.fingerprint] = records_.size();
    records_.push_back(std::move(record));
  }
  Status written = WriteAll();
  if (written.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("resilience.checkpoint.appends")
        ->Increment();
  }
  return written;
}

Status SweepCheckpoint::WriteAll() const {
  // Benches tag checkpoint paths per sweep ("sweeps/ck.jsonl.LDA-R"), whose
  // directory may not exist yet: the atomic write creates it.
  std::string text = "{\"schema\":\"";
  text += kSweepCheckpointSchema;
  text += "\",\"key\":\"";
  obs::AppendJsonEscaped(key_, &text);
  text += "\"}\n";
  for (const CheckpointRecord& record : records_) {
    text += CheckpointRecordToJson(record);
    text += '\n';
  }
  return util::WriteFileAtomically(path_, text);
}

}  // namespace microrec::resilience
