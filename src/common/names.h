// Catalog-name lookup shared by every enum's name parser (apps, BE jobs,
// controllers, request kinds): names compare case-insensitively with
// punctuation ignored, so "e-commerce", "Ecommerce" and "E-COMMERCE" all
// name the same app.

#ifndef RHYTHM_SRC_COMMON_NAMES_H_
#define RHYTHM_SRC_COMMON_NAMES_H_

#include <cctype>
#include <string>

namespace rhythm {

// "E-commerce" -> "ecommerce": the normalization behind name lookup.
inline std::string NormalizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

// Sets *out to the first of `kinds` whose name_of(kind) matches `name` after
// normalization; false, leaving *out untouched, when none does.
template <typename Kinds, typename NameOf, typename Kind>
bool ParseKindName(const std::string& name, const Kinds& kinds, NameOf name_of,
                   Kind* out) {
  const std::string wanted = NormalizeName(name);
  for (const Kind kind : kinds) {
    if (NormalizeName(name_of(kind)) == wanted) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_NAMES_H_
