#include "models/ctabgan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/losses.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace surro::models {

namespace {
/// Concatenate two matrices column-wise into out (same row count).
void hconcat(const linalg::Matrix& a, const linalg::Matrix& b,
             linalg::Matrix& out) {
  const std::size_t rows = a.rows();
  out.resize(rows, a.cols() + b.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(a.data() + r * a.cols(), a.cols(),
                out.data() + r * out.cols());
    std::copy_n(b.data() + r * b.cols(), b.cols(),
                out.data() + r * out.cols() + a.cols());
  }
}
}  // namespace

CtabganPlus::CtabganPlus(CtabganConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

void CtabganPlus::draw_conditions(util::Rng& rng, std::size_t batch,
                                  std::vector<Condition>& out) const {
  out.resize(batch);
  for (auto& c : out) {
    c.block = static_cast<std::size_t>(
        rng.uniform_index(category_log_freq_.size()));
    c.category = rng.categorical(category_log_freq_[c.block]);
  }
}

void CtabganPlus::conditions_to_matrix(const std::vector<Condition>& conds,
                                       linalg::Matrix& out) const {
  out.resize(conds.size(), cond_width_);
  out.zero();
  const auto& blocks = encoder_.blocks();
  const std::size_t base = encoder_.num_numerical();
  for (std::size_t i = 0; i < conds.size(); ++i) {
    const auto& b = blocks[conds[i].block];
    out(i, b.offset - base + conds[i].category) = 1.0f;
  }
}

void CtabganPlus::gumbel_softmax_heads(linalg::Matrix& rows,
                                       util::Rng& rng) const {
  const float tau = cfg_.gumbel_tau;
  for (const auto& b : encoder_.blocks()) {
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      float* row = rows.data() + r * rows.cols() + b.offset;
      float peak = -1e30f;
      for (std::size_t j = 0; j < b.cardinality; ++j) {
        const double u = std::max(rng.uniform(), 1e-12);
        const float g = static_cast<float>(-std::log(-std::log(u)));
        row[j] = (row[j] + g) / tau;
        peak = std::max(peak, row[j]);
      }
      float denom = 0.0f;
      for (std::size_t j = 0; j < b.cardinality; ++j) {
        row[j] = std::exp(row[j] - peak);
        denom += row[j];
      }
      for (std::size_t j = 0; j < b.cardinality; ++j) row[j] /= denom;
    }
  }
}

const linalg::Matrix& CtabganPlus::generator_forward(
    const linalg::Matrix& z_cond, util::Rng& rng) {
  head_out_ = gen_.forward(z_cond, /*train=*/true);
  gumbel_softmax_heads(head_out_, rng);
  return head_out_;
}

void CtabganPlus::generator_backward(const linalg::Matrix& grad_soft) {
  // Chain dL/d(soft) through each block's softmax (the Gumbel noise is an
  // additive constant, the temperature a fixed scale).
  head_grad_ = grad_soft;
  const float inv_tau = 1.0f / cfg_.gumbel_tau;
  for (const auto& b : encoder_.blocks()) {
    for (std::size_t r = 0; r < head_grad_.rows(); ++r) {
      const float* p = head_out_.data() + r * head_out_.cols() + b.offset;
      float* g = head_grad_.data() + r * head_grad_.cols() + b.offset;
      float dot = 0.0f;
      for (std::size_t j = 0; j < b.cardinality; ++j) dot += p[j] * g[j];
      for (std::size_t j = 0; j < b.cardinality; ++j) {
        g[j] = inv_tau * p[j] * (g[j] - dot);
      }
    }
  }
  gen_.backward(head_grad_);
}

void CtabganPlus::index_training_rows(const tabular::Table& table,
                                      bool accumulate) {
  const auto& blocks = encoder_.blocks();
  // Validate every block before mutating any indexing state: a mid-loop
  // throw must not leave a fitted model with half-reset frequency tables
  // (draw_conditions over an empty table is undefined).
  for (const auto& block : blocks) {
    for (const auto code : table.categorical(block.column)) {
      if (code < 0 ||
          static_cast<std::size_t>(code) >= block.cardinality) {
        throw std::invalid_argument(
            "ctabgan: row code outside the fitted vocabulary");
      }
    }
  }
  rows_by_category_.assign(blocks.size(), {});
  if (!accumulate) category_counts_.assign(blocks.size(), {});
  category_log_freq_.assign(blocks.size(), {});
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const auto codes = table.categorical(blocks[bi].column);
    rows_by_category_[bi].assign(blocks[bi].cardinality, {});
    if (!accumulate) category_counts_[bi].assign(blocks[bi].cardinality, 0.0);
    for (std::size_t r = 0; r < codes.size(); ++r) {
      const auto code = static_cast<std::size_t>(codes[r]);
      rows_by_category_[bi][code].push_back(r);
      category_counts_[bi][code] += 1.0;
    }
    category_log_freq_[bi].assign(blocks[bi].cardinality, 0.0);
    for (std::size_t c = 0; c < blocks[bi].cardinality; ++c) {
      category_log_freq_[bi][c] = std::log1p(category_counts_[bi][c]);
    }
  }
}

void CtabganPlus::fit(const tabular::Table& train, const FitOptions& opts) {
  if (fitted_) throw std::logic_error("ctabgan: fit called twice");
  encoder_.fit(train, cfg_.num_quantiles);
  const std::size_t width = encoder_.encoded_width();
  const auto& blocks = encoder_.blocks();
  if (blocks.empty()) {
    throw std::invalid_argument("ctabgan: needs categorical columns");
  }
  cond_width_ = width - encoder_.num_numerical();

  gen_ = nn::make_mlp(cfg_.noise_dim + cond_width_, cfg_.gen_hidden, width,
                      nn::Activation::kReLU, rng_);
  disc_ = nn::make_mlp(width + cond_width_, cfg_.disc_hidden, 1,
                       nn::Activation::kLeakyReLU, rng_);

  index_training_rows(train, /*accumulate=*/false);

  const linalg::Matrix data = encoder_.encode(train);
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t steps_per_epoch = (n + batch - 1) / batch;
  const std::size_t total_steps = cfg_.budget.epochs * steps_per_epoch;

  g_opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate, 0.5f, 0.9f);
  g_opt_->add_params(gen_.params());
  d_opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate, 0.5f, 0.9f);
  d_opt_->add_params(disc_.params());
  opt_steps_ = 0;
  const nn::CosineSchedule schedule(cfg_.budget.learning_rate, total_steps);
  train_steps(data, total_steps, steps_per_epoch, schedule, opts);
  fitted_ = true;
}

void CtabganPlus::warm_fit(const tabular::Table& delta,
                           const RefreshOptions& opts) {
  if (!fitted_) throw std::logic_error("ctabgan: warm_fit before fit");
  if (!warm_startable()) {
    throw std::logic_error("ctabgan: training state not retained");
  }
  if (delta.num_rows() == 0) return;
  // Re-point the real-batch pools at the delta (the rows being absorbed)
  // while the cumulative counts keep the sampling distribution anchored on
  // everything seen so far.
  index_training_rows(delta, /*accumulate=*/true);
  const linalg::Matrix data = encoder_.encode(delta);
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t steps_per_epoch = (n + batch - 1) / batch;
  const std::size_t total_steps =
      opts.resolve_epochs(cfg_.budget.epochs) * steps_per_epoch;
  const nn::ConstantSchedule schedule(cfg_.budget.learning_rate *
                                      opts.learning_rate_scale);
  train_steps(data, total_steps, steps_per_epoch, schedule, opts.fit);
}

void CtabganPlus::train_steps(const linalg::Matrix& data,
                              std::size_t total_steps,
                              std::size_t steps_per_epoch,
                              const nn::LrSchedule& schedule,
                              const FitOptions& opts) {
  const std::size_t width = encoder_.encoded_width();
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t total_epochs = total_steps / steps_per_epoch;

  std::vector<Condition> conds;
  linalg::Matrix cond_mat;
  linalg::Matrix z(batch, cfg_.noise_dim);
  linalg::Matrix z_cond;
  linalg::Matrix real(batch, width);
  linalg::Matrix real_cond;
  linalg::Matrix fake_cond;
  linalg::Matrix grad_real;
  linalg::Matrix grad_fake;
  linalg::Matrix grad_gen_head;

  for (std::size_t step = 0; step < total_steps; ++step) {
    if (step % steps_per_epoch == 0 && opts.cancelled()) {
      throw FitCancelled(name());
    }
    const float lr = schedule.at(opt_steps_++);
    g_opt_->set_learning_rate(lr);
    d_opt_->set_learning_rate(lr);

    for (std::size_t d_iter = 0; d_iter < cfg_.disc_steps_per_gen; ++d_iter) {
      // --- Discriminator step -------------------------------------------
      draw_conditions(rng_, batch, conds);
      conditions_to_matrix(conds, cond_mat);

      // Real rows matching the conditions.
      real.resize(batch, width);
      for (std::size_t i = 0; i < batch; ++i) {
        const auto& pool =
            rows_by_category_[conds[i].block][conds[i].category];
        const std::size_t row =
            pool.empty()
                ? static_cast<std::size_t>(rng_.uniform_index(n))
                : pool[rng_.uniform_index(pool.size())];
        std::copy_n(data.data() + row * width, width,
                    real.data() + i * width);
      }

      // Fake rows under the same conditions.
      z.resize(batch, cfg_.noise_dim);
      for (float& v : z.flat()) v = static_cast<float>(rng_.normal());
      hconcat(z, cond_mat, z_cond);
      const linalg::Matrix fake = generator_forward(z_cond, rng_);

      hconcat(real, cond_mat, real_cond);
      const linalg::Matrix real_logits = disc_.forward(real_cond, true);
      linalg::Matrix real_logits_copy = real_logits;
      hconcat(fake, cond_mat, fake_cond);
      const linalg::Matrix& fake_logits = disc_.forward(fake_cond, true);

      last_d_ = nn::gan_discriminator_loss(real_logits_copy, fake_logits,
                                           grad_real, grad_fake,
                                           cfg_.label_smoothing);
      // Two separate passes share cached activations only for the last
      // forward, so backprop each half in its own forward/backward pair.
      disc_.backward(grad_fake);
      disc_.forward(real_cond, true);
      disc_.backward(grad_real);
      d_opt_->clip_grad_norm(cfg_.grad_clip);
      d_opt_->step();
    }

    // --- Generator step ---------------------------------------------------
    draw_conditions(rng_, batch, conds);
    conditions_to_matrix(conds, cond_mat);
    z.resize(batch, cfg_.noise_dim);
    for (float& v : z.flat()) v = static_cast<float>(rng_.normal());
    hconcat(z, cond_mat, z_cond);
    const linalg::Matrix& fake = generator_forward(z_cond, rng_);

    hconcat(fake, cond_mat, fake_cond);
    const linalg::Matrix& fake_logits = disc_.forward(fake_cond, true);
    linalg::Matrix grad_logits;
    const float g_loss = nn::gan_generator_loss(fake_logits, grad_logits);
    const linalg::Matrix& grad_disc_in = disc_.backward(grad_logits);

    // Slice off the gradient w.r.t. the generated row (drop cond columns),
    // and add the auxiliary condition cross-entropy on the selected block.
    grad_gen_head.resize(batch, width);
    for (std::size_t r = 0; r < batch; ++r) {
      std::copy_n(grad_disc_in.data() + r * (width + cond_width_), width,
                  grad_gen_head.data() + r * width);
    }
    float cond_ce = 0.0f;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      const auto& b = encoder_.blocks()[conds[r].block];
      const float* p = fake.data() + r * width + b.offset;
      float* g = grad_gen_head.data() + r * width + b.offset;
      const float p_target = std::max(p[conds[r].category], 1e-6f);
      cond_ce -= std::log(p_target) * inv_batch;
      // d(-log p_c)/dp_j = -1/p_c at j=c else 0.
      g[conds[r].category] -=
          cfg_.cond_loss_weight * inv_batch / p_target;
    }
    generator_backward(grad_gen_head);
    g_opt_->clip_grad_norm(cfg_.grad_clip);
    g_opt_->step();
    // The generator pass accumulated gradients into D as a side effect.
    disc_.zero_grad();
    last_g_ = g_loss + cfg_.cond_loss_weight * cond_ce;

    if (cfg_.budget.log_every_epochs > 0 &&
        (step + 1) % (cfg_.budget.log_every_epochs * steps_per_epoch) == 0) {
      util::log_info("ctabgan: step %zu/%zu d_loss %.4f g_loss %.4f",
                     step + 1, total_steps, static_cast<double>(last_d_),
                     static_cast<double>(last_g_));
    }
    if (opts.on_progress && (step + 1) % steps_per_epoch == 0) {
      opts.on_progress({(step + 1) / steps_per_epoch, total_epochs,
                        last_g_ + last_d_});
    }
  }
}

tabular::Table CtabganPlus::sample_chunk(std::size_t n, std::uint64_t seed) {
  if (!fitted_) throw std::logic_error("ctabgan: sample before fit");
  util::Rng rng(seed);
  tabular::Table out = encoder_.make_empty_table();
  const std::size_t chunk = 2048;

  std::vector<Condition> conds;
  linalg::Matrix cond_mat;
  linalg::Matrix z;
  linalg::Matrix z_cond;
  linalg::Matrix soft;
  for (std::size_t off = 0; off < n; off += chunk) {
    const std::size_t cur = std::min(chunk, n - off);
    draw_conditions(rng, cur, conds);
    conditions_to_matrix(conds, cond_mat);
    z.resize(cur, cfg_.noise_dim);
    for (float& v : z.flat()) v = static_cast<float>(rng.normal());
    hconcat(z, cond_mat, z_cond);
    gen_.infer(z_cond, soft);
    gumbel_softmax_heads(soft, rng);
    out.append_table(encoder_.decode(soft, &rng));
  }
  return out;
}

void CtabganPlus::save(std::ostream& os) const { save_impl(os, true); }

void CtabganPlus::save_impl(std::ostream& os,
                            bool include_train_state) const {
  if (!fitted_) throw std::logic_error("ctabgan: save before fit");
  util::io::write_tag(os, "CTGN");
  util::io::write_u32(os, 2);  // payload version
  util::io::write_u64(os, cfg_.noise_dim);
  util::io::write_f32(os, cfg_.gumbel_tau);
  util::io::write_u64(os, cond_width_);
  encoder_.save(os);
  nn::save_mlp(os, gen_);
  // Training-by-sampling frequency tables drive the condition draws during
  // synthesis; the row index pools are training-only and stay behind.
  util::io::write_u64(os, category_log_freq_.size());
  for (const auto& freqs : category_log_freq_) {
    util::io::write_vec_f64(os, freqs);
  }
  // v2: optional training state so a reloaded model can warm_fit — the
  // discriminator, both optimizers, cumulative category counts, and the
  // training RNG.
  const bool train_state = include_train_state && g_opt_ != nullptr;
  util::io::write_u32(os, train_state ? 1 : 0);
  if (train_state) {
    util::io::write_f32(os, cfg_.budget.learning_rate);
    util::io::write_u64(os, cfg_.budget.epochs);
    util::io::write_u64(os, cfg_.budget.batch_size);
    nn::save_mlp(os, disc_);
    g_opt_->save(os);
    d_opt_->save(os);
    util::io::write_u64(os, opt_steps_);
    util::io::write_u64(os, category_counts_.size());
    for (const auto& counts : category_counts_) {
      util::io::write_vec_f64(os, counts);
    }
    rng_.save(os);
  }
}

void CtabganPlus::load(std::istream& is) {
  if (fitted_) throw std::logic_error("ctabgan: load into fitted model");
  util::io::expect_tag(is, "CTGN");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != 1 && version != 2) {
    throw std::runtime_error("ctabgan: unsupported payload");
  }
  cfg_.noise_dim = static_cast<std::size_t>(util::io::read_u64(is));
  cfg_.gumbel_tau = util::io::read_f32(is);
  cond_width_ = static_cast<std::size_t>(util::io::read_u64(is));
  encoder_.load(is);
  gen_ = nn::load_mlp(is);
  category_log_freq_.resize(util::io::read_count(is));
  for (auto& freqs : category_log_freq_) freqs = util::io::read_vec_f64(is);
  if (version >= 2 && util::io::read_u32(is) != 0) {
    cfg_.budget.learning_rate = util::io::read_f32(is);
    cfg_.budget.epochs = static_cast<std::size_t>(util::io::read_u64(is));
    cfg_.budget.batch_size = static_cast<std::size_t>(util::io::read_u64(is));
    disc_ = nn::load_mlp(is);
    g_opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate, 0.5f,
                                        0.9f);
    g_opt_->add_params(gen_.params());
    d_opt_ = std::make_unique<nn::Adam>(cfg_.budget.learning_rate, 0.5f,
                                        0.9f);
    d_opt_->add_params(disc_.params());
    g_opt_->load(is);
    d_opt_->load(is);
    opt_steps_ = static_cast<std::size_t>(util::io::read_u64(is));
    category_counts_.resize(util::io::read_count(is));
    for (auto& counts : category_counts_) {
      counts = util::io::read_vec_f64(is);
    }
    rng_.load(is);
  }
  fitted_ = true;
}

std::unique_ptr<TabularGenerator> CtabganPlus::clone() const {
  std::stringstream buffer;
  save_impl(buffer, /*include_train_state=*/false);
  auto copy = std::make_unique<CtabganPlus>(cfg_);
  copy->load(buffer);
  return copy;
}

namespace {
const RegisterGenerator kRegisterCtabgan{{
    "ctabgan",
    "CTABGAN+",
    "Conditional GAN with training-by-sampling and Gumbel-softmax heads "
    "(Zhao et al., 2024)",
    [](const TrainBudget& budget, std::uint64_t seed) {
      CtabganConfig cfg;
      cfg.budget = budget;
      cfg.seed = seed;
      return std::make_unique<CtabganPlus>(cfg);
    },
}};
}  // namespace

}  // namespace surro::models
