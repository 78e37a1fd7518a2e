// Property-based tests for GF(256) arithmetic and matrices: field axioms,
// inverse/division consistency, Cauchy submatrix invertibility (the MDS
// property's foundation), Gauss-Jordan inversion.
#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "ec/gf256.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/matrix.hpp"

namespace sdr::ec {
namespace {

const Gf256& gf() { return Gf256::instance(); }

TEST(Gf256Test, AdditionIsXor) {
  EXPECT_EQ(gf().add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf().sub(0x53, 0xCA), 0x53 ^ 0xCA);  // char 2: sub == add
}

TEST(Gf256Test, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf().mul(x, 1), x);
    EXPECT_EQ(gf().mul(1, x), x);
    EXPECT_EQ(gf().mul(x, 0), 0);
    EXPECT_EQ(gf().mul(0, x), 0);
  }
}

TEST(Gf256Test, MultiplicationCommutesExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = a; b < 256; ++b) {
      ASSERT_EQ(gf().mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)),
                gf().mul(static_cast<std::uint8_t>(b),
                         static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256Test, AssociativityRandomized) {
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_EQ(gf().mul(gf().mul(a, b), c), gf().mul(a, gf().mul(b, c)));
  }
}

TEST(Gf256Test, DistributivityRandomized) {
  Rng rng(103);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_EQ(gf().mul(a, gf().add(b, c)),
              gf().add(gf().mul(a, b), gf().mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    const std::uint8_t inv = gf().inv(x);
    ASSERT_EQ(gf().mul(x, inv), 1) << "a=" << a;
  }
}

TEST(Gf256Test, DivisionInvertsMultiplication) {
  Rng rng(107);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.next_below(255));
    ASSERT_EQ(gf().div(gf().mul(a, b), b), a);
  }
}

TEST(Gf256Test, PowMatchesRepeatedMultiplication) {
  for (unsigned a = 0; a < 256; ++a) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 8; ++e) {
      ASSERT_EQ(gf().pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf().mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

// The multiply-accumulate and multiply-set forms of the bulk loop are
// one-row dot products through the dispatched kernel set: dst = base ^ c*src
// is the row (1, c) over the sources (base, src), dst = c*src the row (c).
std::vector<std::uint8_t> dot_row(std::initializer_list<std::uint8_t> coeffs,
                                  std::initializer_list<const std::uint8_t*> src,
                                  std::size_t n) {
  GfDotTables t;
  t.reset(1, coeffs.size());
  std::size_t s = 0;
  for (const std::uint8_t c : coeffs) t.set(0, s++, c);
  std::vector<std::uint8_t> out(n, 0xEE);
  std::uint8_t* dst[] = {out.data()};
  gf_kernels().dot_prod(t, std::data(src), dst, n);
  return out;
}

TEST(Gf256Test, MulAccKernelMatchesScalar) {
  Rng rng(109);
  std::vector<std::uint8_t> src(1000), dst(1000), expect(1000);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(rng.next_below(256));
    dst[i] = static_cast<std::uint8_t>(rng.next_below(256));
    expect[i] = dst[i];
  }
  const std::uint8_t c = 0x7a;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expect[i] ^= gf().mul(c, src[i]);
  }
  EXPECT_EQ(dot_row({1, c}, {dst.data(), src.data()}, dst.size()), expect);
}

TEST(Gf256Test, MulAccSpecialConstants) {
  const std::vector<std::uint8_t> src(64, 0x5b), dst(64, 0x11);
  // c == 0: dst unchanged.
  EXPECT_EQ(dot_row({1, 0}, {dst.data(), src.data()}, dst.size()), dst);
  // c == 1: plain XOR.
  EXPECT_EQ(dot_row({1, 1}, {dst.data(), src.data()}, dst.size()),
            std::vector<std::uint8_t>(64, 0x11 ^ 0x5b));
}

TEST(Gf256Test, MulSetMatchesMul) {
  std::vector<std::uint8_t> src(128);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::vector<std::uint8_t> dst =
      dot_row({0x3c}, {src.data()}, src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(dst[i], gf().mul(0x3c, src[i]));
  }
  EXPECT_EQ(dot_row({0}, {src.data()}, src.size()),
            std::vector<std::uint8_t>(128, 0));
}

// ---------------------------------------------------------------------------
// Matrices
// ---------------------------------------------------------------------------

TEST(GfMatrixTest, IdentityMultiplication) {
  const GfMatrix id = GfMatrix::identity(5);
  GfMatrix m(5, 5);
  Rng rng(113);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      m.at(r, c) = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  EXPECT_EQ(id.multiply(m), m);
  EXPECT_EQ(m.multiply(id), m);
}

TEST(GfMatrixTest, InversionRoundTripRandomized) {
  Rng rng(127);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.next_below(12);
    GfMatrix m(n, n);
    // Random matrices over GF(256) are invertible w.h.p.; retry otherwise.
    GfMatrix inv;
    do {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          m.at(r, c) = static_cast<std::uint8_t>(rng.next_below(256));
        }
      }
    } while (!m.invert(inv));
    EXPECT_EQ(m.multiply(inv), GfMatrix::identity(n));
    EXPECT_EQ(inv.multiply(m), GfMatrix::identity(n));
  }
}

TEST(GfMatrixTest, SingularMatrixDetected) {
  GfMatrix m(3, 3);
  // Row 2 = row 0 XOR row 1 -> linearly dependent.
  m.at(0, 0) = 1; m.at(0, 1) = 2; m.at(0, 2) = 3;
  m.at(1, 0) = 4; m.at(1, 1) = 5; m.at(1, 2) = 6;
  for (std::size_t c = 0; c < 3; ++c) m.at(2, c) = m.at(0, c) ^ m.at(1, c);
  GfMatrix inv;
  EXPECT_FALSE(m.invert(inv));
}

TEST(GfMatrixTest, CauchyEverySquareSubmatrixInvertible) {
  // The MDS property: any k rows of [I; Cauchy] are invertible. Verify on
  // the Cauchy part directly for a (8, 8) construction: every square
  // submatrix made of distinct rows/cols must be invertible. Spot-check
  // many random submatrices.
  const std::size_t k = 8, m = 8;
  const GfMatrix cauchy =
      GfMatrix::cauchy(m, k, static_cast<std::uint8_t>(k), 0);
  Rng rng(131);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = 1 + rng.next_below(m);
    // Pick `size` distinct rows and cols.
    std::vector<std::size_t> rows, cols;
    while (rows.size() < size) {
      const std::size_t r = rng.next_below(m);
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
        rows.push_back(r);
      }
    }
    while (cols.size() < size) {
      const std::size_t c = rng.next_below(k);
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    GfMatrix sub(size, size);
    for (std::size_t r = 0; r < size; ++r) {
      for (std::size_t c = 0; c < size; ++c) {
        sub.at(r, c) = cauchy.at(rows[r], cols[c]);
      }
    }
    GfMatrix inv;
    ASSERT_TRUE(sub.invert(inv)) << "Cauchy submatrix must be invertible";
  }
}

TEST(GfMatrixTest, SelectRows) {
  GfMatrix m(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    m.at(r, 0) = static_cast<std::uint8_t>(r);
    m.at(r, 1) = static_cast<std::uint8_t>(r * 10);
  }
  const GfMatrix sel = m.select_rows({3, 1});
  EXPECT_EQ(sel.rows(), 2u);
  EXPECT_EQ(sel.at(0, 1), 30);
  EXPECT_EQ(sel.at(1, 0), 1);
}

}  // namespace
}  // namespace sdr::ec
