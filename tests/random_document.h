// Seeded random document trees shared by the fuzz and property suites.

#ifndef XIA_TESTS_RANDOM_DOCUMENT_H_
#define XIA_TESTS_RANDOM_DOCUMENT_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "xml/builder.h"

namespace xia {

/// Builds a random tree of bounded size via DocumentBuilder: a `root`
/// element over 5-60 elements named a-d (so same-name elements nest and
/// `//` contexts overlap), some carrying a `k0`-`k2` attribute or text.
inline Document RandomDocument(NameTable* names, Random* rng) {
  DocumentBuilder b(names);
  const std::vector<std::string> tags = {"a", "b", "c", "d"};
  int open = 0;
  int emitted = 0;
  b.StartElement("root");
  ++open;
  int target = static_cast<int>(rng->Uniform(5, 60));
  while (emitted < target || open > 1) {
    if (emitted < target &&
        (open < 2 || rng->Bernoulli(0.55))) {
      b.StartElement(rng->Choice(tags));
      ++open;
      ++emitted;
      if (rng->Bernoulli(0.3)) {
        b.AddAttribute("k" + std::to_string(rng->Uniform(0, 2)),
                       std::to_string(rng->Uniform(0, 999)));
      }
      if (rng->Bernoulli(0.4)) {
        b.AddText("v " + std::to_string(rng->Uniform(0, 99)) + " <&>");
      }
    }
    if (open > 1 && (emitted >= target || rng->Bernoulli(0.5))) {
      b.EndElement();
      --open;
    }
  }
  b.EndElement();
  Result<Document> doc = b.Finish();
  EXPECT_TRUE(doc.ok());
  return std::move(*doc);
}

}  // namespace xia

#endif  // XIA_TESTS_RANDOM_DOCUMENT_H_
