#include "check/repro.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "obs/json_writer.hpp"

namespace pmsb::check {

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

std::string to_json(const Repro& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("pmsb_repro", 1);
  w.field("category", r.category);
  w.field("first_issue", r.first_issue);
  w.key("spec").begin_object();
  w.field("n", r.spec.n);
  w.field("segments", r.spec.segments);
  w.field("capacity_cells", r.spec.capacity_cells);
  w.field("out_queue_limit", r.spec.out_queue_limit);
  w.field("cut_through", r.spec.cut_through);
  w.field("pattern", r.spec.pattern);
  w.field("load", r.spec.load);
  w.field("hot_fraction", r.spec.hot_fraction);
  w.field("slots", r.spec.slots);
  w.field("seed", r.spec.seed);
  w.field("fault_suppress_write_period", r.spec.fault_suppress_write_period);
  w.end_object();
  w.key("cells").begin_array();
  for (const ScheduledCell& c : r.cells) {
    w.begin_array().value(c.input).value(c.slot).value(c.dest).end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_repro_file(const Repro& r, const std::string& path, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  const std::string doc = to_json(r);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok && err) *err = "short write to " + path;
  return ok;
}

// ---------------------------------------------------------------------------
// Parsing (minimal strict JSON)
// ---------------------------------------------------------------------------

namespace {

/// JSON value tree. A number keeps its text beside its double value, so an
/// integer field is read from the digits exactly (a 64-bit seed does not fit
/// a double).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;  ///< A string's contents, or a number's text.
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out, std::string* err) {
    err_ = err;
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (err_ && err_->empty()) *err_ = msg + " (offset " + std::to_string(pos_) + ")";
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool literal(const char* word, JsonValue* out, JsonValue::Kind kind, bool bval) {
    for (const char* p = word; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return fail("bad literal");
    }
    out->kind = kind;
    out->b = bval;
    return true;
  }

  bool string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("truncated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Repro documents only escape control characters; decode the
            // BMP code point as a raw byte when < 0x80, else reject.
            if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            if (code >= 0x80) return fail("non-ASCII \\u escape unsupported");
            out->push_back(static_cast<char>(code));
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    out->str = s_.substr(start, pos_ - start);
    std::size_t used = 0;
    try {
      out->num = std::stod(out->str, &used);
    } catch (...) {
      return fail("malformed number");
    }
    if (used != out->str.size()) return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of document");
    const char c = s_[pos_];
    switch (c) {
      case '{': {
        ++pos_;
        out->kind = JsonValue::Kind::kObject;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          std::string key;
          if (!string(&key)) return false;
          if (!expect(':')) return false;
          JsonValue v;
          if (!value(&v)) return false;
          out->obj.emplace(std::move(key), std::move(v));
          skip_ws();
          if (pos_ < s_.size() && s_[pos_] == ',') {
            ++pos_;
            skip_ws();
            continue;
          }
          return expect('}');
        }
      }
      case '[': {
        ++pos_;
        out->kind = JsonValue::Kind::kArray;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue v;
          if (!value(&v)) return false;
          out->arr.push_back(std::move(v));
          skip_ws();
          if (pos_ < s_.size() && s_[pos_] == ',') {
            ++pos_;
            continue;
          }
          return expect(']');
        }
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->str);
      case 't': return literal("true", out, JsonValue::Kind::kBool, true);
      case 'f': return literal("false", out, JsonValue::Kind::kBool, false);
      case 'n': return literal("null", out, JsonValue::Kind::kNull, false);
      default: return number(out);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* err_ = nullptr;
};

/// obj[key] if it is a number; else null and an error naming the field.
const JsonValue* find_number(const JsonValue& obj, const char* key, std::string* err) {
  const auto it = obj.obj.find(key);
  if (it == obj.obj.end() || it->second.kind != JsonValue::Kind::kNumber) {
    if (err) *err = std::string("missing or non-numeric field \"") + key + "\"";
    return nullptr;
  }
  return &it->second;
}

bool get_number(const JsonValue& obj, const char* key, double* out, std::string* err) {
  const JsonValue* v = find_number(obj, key, err);
  if (v) *out = v->num;
  return v != nullptr;
}

/// Number `v` as a T, if its text is a plain decimal integer no larger than
/// T's maximum; else false and an error naming `what`. A fraction, a sign,
/// an exponent or a value past the field's range is rejected rather than
/// cast.
template <typename T>
bool to_uint(const JsonValue& v, const std::string& what, T* out, std::string* err) {
  std::uint64_t u = 0;
  const char* end = v.str.data() + v.str.size();
  const auto [ptr, ec] = std::from_chars(v.str.data(), end, u);
  if (ec != std::errc{} || ptr != end || u > std::numeric_limits<T>::max()) {
    if (err) *err = what + " is not a non-negative integer that fits its field";
    return false;
  }
  *out = static_cast<T>(u);
  return true;
}

template <typename T>
bool get_uint(const JsonValue& obj, const char* key, T* out, std::string* err) {
  const JsonValue* v = find_number(obj, key, err);
  return v && to_uint(*v, std::string("field \"") + key + "\"", out, err);
}

}  // namespace

bool parse_repro(const std::string& json, Repro* out, std::string* err) {
  JsonValue root;
  std::string perr;
  JsonParser parser(json);
  if (!parser.parse(&root, &perr)) {
    if (err) *err = "malformed JSON: " + perr;
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    if (err) *err = "repro document is not an object";
    return false;
  }
  unsigned version = 0;
  if (!get_uint(root, "pmsb_repro", &version, err)) return false;
  if (version != 1) {
    if (err) *err = "unsupported repro version " + std::to_string(version);
    return false;
  }
  const auto cat = root.obj.find("category");
  if (cat != root.obj.end() && cat->second.kind == JsonValue::Kind::kString) {
    out->category = cat->second.str;
  }
  const auto fi = root.obj.find("first_issue");
  if (fi != root.obj.end() && fi->second.kind == JsonValue::Kind::kString) {
    out->first_issue = fi->second.str;
  }

  const auto spec_it = root.obj.find("spec");
  if (spec_it == root.obj.end() || spec_it->second.kind != JsonValue::Kind::kObject) {
    if (err) *err = "missing \"spec\" object";
    return false;
  }
  const JsonValue& s = spec_it->second;
  FuzzSpec& spec = out->spec;
  if (!get_uint(s, "n", &spec.n, err) || !get_uint(s, "segments", &spec.segments, err) ||
      !get_uint(s, "capacity_cells", &spec.capacity_cells, err) ||
      !get_uint(s, "out_queue_limit", &spec.out_queue_limit, err) ||
      !get_uint(s, "pattern", &spec.pattern, err) ||
      !get_uint(s, "slots", &spec.slots, err) || !get_uint(s, "seed", &spec.seed, err) ||
      !get_uint(s, "fault_suppress_write_period", &spec.fault_suppress_write_period, err)) {
    return false;
  }
  if (!get_number(s, "load", &spec.load, err) ||
      !get_number(s, "hot_fraction", &spec.hot_fraction, err)) {
    return false;
  }
  const auto ct = s.obj.find("cut_through");
  if (ct == s.obj.end() || ct->second.kind != JsonValue::Kind::kBool) {
    if (err) *err = "missing boolean \"cut_through\"";
    return false;
  }
  spec.cut_through = ct->second.b;

  const auto cells_it = root.obj.find("cells");
  if (cells_it == root.obj.end() || cells_it->second.kind != JsonValue::Kind::kArray) {
    if (err) *err = "missing \"cells\" array";
    return false;
  }
  out->cells.clear();
  std::vector<long long> last_slot(out->spec.n, -1);
  for (const JsonValue& c : cells_it->second.arr) {
    if (c.kind != JsonValue::Kind::kArray || c.arr.size() != 3 ||
        c.arr[0].kind != JsonValue::Kind::kNumber ||
        c.arr[1].kind != JsonValue::Kind::kNumber ||
        c.arr[2].kind != JsonValue::Kind::kNumber) {
      if (err) *err = "cell entries must be [input, slot, dest] number triples";
      return false;
    }
    const std::string at = "cell " + std::to_string(out->cells.size()) + "'s ";
    ScheduledCell cell;
    if (!to_uint(c.arr[0], at + "input", &cell.input, err) ||
        !to_uint(c.arr[1], at + "slot", &cell.slot, err) ||
        !to_uint(c.arr[2], at + "dest", &cell.dest, err)) {
      return false;
    }
    if (cell.input >= out->spec.n || cell.dest >= out->spec.n ||
        cell.slot >= out->spec.slots) {
      if (err) *err = "cell entry out of range for the spec";
      return false;
    }
    if (static_cast<long long>(cell.slot) <= last_slot[cell.input]) {
      if (err) *err = "cells of one input must occupy strictly increasing slots";
      return false;
    }
    last_slot[cell.input] = cell.slot;
    out->cells.push_back(cell);
  }
  return true;
}

bool read_repro_file(const std::string& path, Repro* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return parse_repro(text, out, err);
}

ReplayResult replay(const Repro& r) {
  ReplayResult res;
  res.expected_category = r.category;
  res.outcome = run(r.spec, r.cells);
  res.reproduced = !res.outcome.ok &&
                   (r.category.empty() ||
                    issue_category(res.outcome.issues.front()) == r.category);
  return res;
}

bool replay_file(const std::string& path, ReplayResult* out, std::string* err) {
  Repro r;
  if (!read_repro_file(path, &r, err)) return false;
  *out = replay(r);
  return true;
}

}  // namespace pmsb::check
