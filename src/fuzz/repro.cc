#include "fuzz/repro.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/dn.h"

namespace ndq {
namespace fuzz {

namespace {

// Splits off the next whitespace-delimited word of `line` at *pos.
std::string ReadWord(std::string_view line, size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  return std::string(line.substr(start, *pos - start));
}

Status MalformedLine(size_t lineno, const std::string& why) {
  return Status::InvalidArgument("ndqrepro line " + std::to_string(lineno) +
                                 ": " + why);
}

}  // namespace

std::string QuoteString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

Result<std::string> UnquoteString(std::string_view text, size_t* pos) {
  while (*pos < text.size() && text[*pos] == ' ') ++*pos;
  if (*pos >= text.size() || text[*pos] != '"') {
    return Status::InvalidArgument("expected opening quote");
  }
  ++*pos;
  std::string out;
  while (*pos < text.size()) {
    char c = text[*pos];
    if (c == '"') {
      ++*pos;
      return out;
    }
    if (c != '\\') {
      out.push_back(c);
      ++*pos;
      continue;
    }
    if (*pos + 1 >= text.size()) {
      return Status::InvalidArgument("dangling escape in quoted string");
    }
    char e = text[*pos + 1];
    *pos += 2;
    switch (e) {
      case '\\':
        out.push_back('\\');
        break;
      case '"':
        out.push_back('"');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'x': {
        if (*pos + 1 >= text.size() ||
            !std::isxdigit(static_cast<unsigned char>(text[*pos])) ||
            !std::isxdigit(static_cast<unsigned char>(text[*pos + 1]))) {
          return Status::InvalidArgument("bad \\x escape in quoted string");
        }
        int v = std::stoi(std::string(text.substr(*pos, 2)), nullptr, 16);
        out.push_back(static_cast<char>(v));
        *pos += 2;
        break;
      }
      default:
        return Status::InvalidArgument("unknown escape in quoted string");
    }
  }
  return Status::InvalidArgument("unterminated quoted string");
}

std::string Repro::ToText() const {
  std::ostringstream out;
  out << "ndqrepro 1\n";
  out << "check " << check << "\n";
  out << "seed " << seed << "\n";
  out << "query " << query_text << "\n";
  for (const Entry& e : entries) {
    out << "entry " << QuoteString(e.dn().ToString()) << "\n";
    for (const AttributeView& a : e.view()) {
      for (ValueView v : a.values) {
        switch (v.kind()) {
          case TypeKind::kInt:
            out << "attr " << a.name << " int " << v.AsInt() << "\n";
            break;
          case TypeKind::kString:
            out << "attr " << a.name << " str "
                << QuoteString(v.AsString()) << "\n";
            break;
          case TypeKind::kDn:
            out << "attr " << a.name << " dn " << QuoteString(v.AsString())
                << "\n";
            break;
        }
      }
    }
    out << "end\n";
  }
  return out.str();
}

Result<Repro> Repro::FromText(std::string_view text) {
  Repro repro;
  bool saw_header = false;
  bool in_entry = false;
  Entry current;
  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t lp = 0;
    std::string kw = ReadWord(line, &lp);
    if (!saw_header) {
      if (kw != "ndqrepro" || ReadWord(line, &lp) != "1") {
        return MalformedLine(lineno, "expected 'ndqrepro 1' header");
      }
      saw_header = true;
      continue;
    }
    if (kw == "check") {
      while (lp < line.size() && line[lp] == ' ') ++lp;
      repro.check = std::string(line.substr(lp));
    } else if (kw == "seed") {
      // Digits only, as strtoull would negate a '-' and saturate.
      std::string num = ReadWord(line, &lp);
      errno = 0;
      char* endp = nullptr;
      uint64_t v = std::strtoull(num.c_str(), &endp, 10);
      if (num.empty() || num[0] < '0' || num[0] > '9' || endp == nullptr ||
          *endp != '\0' || errno != 0) {
        return MalformedLine(lineno, "bad seed '" + num + "'");
      }
      repro.seed = v;
    } else if (kw == "query") {
      while (lp < line.size() && line[lp] == ' ') ++lp;
      repro.query_text = std::string(line.substr(lp));
    } else if (kw == "entry") {
      if (in_entry) return MalformedLine(lineno, "entry without end");
      Result<std::string> dn_text = UnquoteString(line, &lp);
      if (!dn_text.ok()) return MalformedLine(lineno, "bad dn quoting");
      Result<Dn> dn = Dn::Parse(*dn_text);
      if (!dn.ok()) {
        return MalformedLine(lineno, "bad dn: " + dn.status().ToString());
      }
      current = Entry(dn.TakeValue());
      in_entry = true;
    } else if (kw == "attr") {
      if (!in_entry) return MalformedLine(lineno, "attr outside entry");
      std::string attr = ReadWord(line, &lp);
      std::string type = ReadWord(line, &lp);
      if (attr.empty()) return MalformedLine(lineno, "missing attr name");
      if (type == "int") {
        std::string num = ReadWord(line, &lp);
        errno = 0;
        char* endp = nullptr;
        int64_t v = std::strtoll(num.c_str(), &endp, 10);
        if (num.empty() || endp == nullptr || *endp != '\0' || errno != 0) {
          return MalformedLine(lineno, "bad int value '" + num + "'");
        }
        current.AddInt(attr, v);
      } else if (type == "str" || type == "dn") {
        Result<std::string> v = UnquoteString(line, &lp);
        if (!v.ok()) return MalformedLine(lineno, "bad quoted value");
        if (type == "str") {
          current.AddString(attr, v.TakeValue());
        } else {
          current.AddValue(attr, Value::DnRef(v.TakeValue()));
        }
      } else {
        return MalformedLine(lineno, "unknown attr type '" + type + "'");
      }
    } else if (kw == "end") {
      if (!in_entry) return MalformedLine(lineno, "end outside entry");
      repro.entries.push_back(std::move(current));
      current = Entry();
      in_entry = false;
    } else {
      return MalformedLine(lineno, "unknown keyword '" + kw + "'");
    }
  }
  if (in_entry) return Status::InvalidArgument("ndqrepro: unterminated entry");
  if (!saw_header) return Status::InvalidArgument("ndqrepro: empty input");
  return repro;
}

Status Repro::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open '" + path + "' for write");
  out << ToText();
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

Result<Repro> Repro::LoadFrom(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::Internal("read of '" + path + "' failed");
  return FromText(buf.str());
}

Result<DirectoryInstance> Repro::BuildInstance() const {
  DirectoryInstance inst(Schema(), /*validate=*/false);
  for (const Entry& e : entries) {
    NDQ_RETURN_IF_ERROR(inst.Add(e));
  }
  return inst;
}

}  // namespace fuzz
}  // namespace ndq
