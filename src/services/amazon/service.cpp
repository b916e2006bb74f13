#include "services/amazon/service.hpp"

#include "reflect/object.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace wsc::services::amazon {

using reflect::Object;
using reflect::type_of;

const std::vector<std::string>& search_operations() {
  static const std::vector<std::string> ops = {
      "KeywordSearch",     "TextStreamSearch",    "PowerSearch",
      "BrowseNodeSearch",  "AsinSearch",          "BlendedSearch",
      "UpcSearch",         "SkuSearch",           "AuthorSearch",
      "ArtistSearch",      "ActorSearch",         "ManufacturerSearch",
      "DirectorSearch",    "ListManiaSearch",     "WishlistSearch",
      "ExchangeSearch",    "MarketplaceSearch",   "SellerProfileSearch",
      "SellerSearch",      "SimilaritySearch"};
  return ops;
}

const std::vector<std::string>& cart_operations() {
  static const std::vector<std::string> ops = {
      "GetShoppingCart",        "ClearShoppingCart",
      "AddShoppingCartItems",   "RemoveShoppingCartItems",
      "ModifyShoppingCartItems", "GetTransactionDetails"};
  return ops;
}

std::shared_ptr<const wsdl::ServiceDescription> amazon_description() {
  static const std::shared_ptr<const wsdl::ServiceDescription> desc = [] {
    ensure_amazon_types();
    auto d = std::make_shared<wsdl::ServiceDescription>(
        "AmazonSearchService", "urn:PI/DevCentral/SoapAPI");
    const auto& str = type_of<std::string>();
    const auto& i32 = type_of<std::int32_t>();

    for (const std::string& name : search_operations()) {
      wsdl::OperationInfo op;
      op.name = name;
      op.params = {{"key", &str}, {"query", &str}, {"page", &i32}};
      op.result_type = &type_of<AmazonSearchResult>();
      d->add_operation(std::move(op));
    }

    auto cart_op = [&](const std::string& name,
                       std::vector<wsdl::ParamSpec> params,
                       const reflect::TypeInfo& result) {
      wsdl::OperationInfo op;
      op.name = name;
      op.params = std::move(params);
      op.result_type = &result;
      d->add_operation(std::move(op));
    };
    const auto& cart = type_of<ShoppingCart>();
    cart_op("GetShoppingCart", {{"cartId", &str}}, cart);
    cart_op("ClearShoppingCart", {{"cartId", &str}}, cart);
    cart_op("AddShoppingCartItems",
            {{"cartId", &str}, {"asin", &str}, {"quantity", &i32}}, cart);
    cart_op("RemoveShoppingCartItems", {{"cartId", &str}, {"asin", &str}}, cart);
    cart_op("ModifyShoppingCartItems",
            {{"cartId", &str}, {"asin", &str}, {"quantity", &i32}}, cart);
    cart_op("GetTransactionDetails", {{"transactionId", &str}},
            type_of<TransactionDetails>());
    return d;
  }();
  return desc;
}

cache::CachePolicy default_amazon_policy(std::chrono::milliseconds ttl) {
  cache::CachePolicy policy;
  for (const std::string& op : search_operations()) policy.cacheable(op, ttl);
  for (const std::string& op : cart_operations()) policy.uncacheable(op);
  return policy;
}

AmazonSearchResult AmazonBackend::search(const std::string& operation,
                                         const std::string& query,
                                         std::int32_t page) const {
  util::Rng rng(util::fnv1a(operation) ^ util::fnv1a(query) ^
                static_cast<std::uint64_t>(page));
  AmazonSearchResult result;
  result.totalResults = static_cast<std::int32_t>(10 + rng.next_below(100'000));
  int n = static_cast<int>(3 + rng.next_below(8));
  result.products.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ProductSummary p;
    p.asin = "B";
    p.asin += std::to_string(100000000 + rng.next_below(900000000));
    p.title = rng.next_sentence(5);
    p.manufacturer = rng.next_word(4, 12);
    p.listPrice = 5.0 + rng.next_double() * 200.0;
    p.salesRank = static_cast<std::int32_t>(1 + rng.next_below(1'000'000));
    result.products.push_back(std::move(p));
  }
  return result;
}

double AmazonBackend::price_of(const std::string& asin) {
  return 5.0 + static_cast<double>(util::fnv1a(asin) % 20000) / 100.0;
}

void AmazonBackend::recompute_subtotal(ShoppingCart& cart) {
  cart.subtotal = 0.0;
  for (const CartItem& item : cart.items)
    cart.subtotal += item.unitPrice * item.quantity;
}

ShoppingCart AmazonBackend::get_cart(const std::string& cart_id) const {
  std::lock_guard lock(mu_);
  auto it = carts_.find(cart_id);
  if (it != carts_.end()) return it->second;
  ShoppingCart empty;
  empty.cartId = cart_id;
  return empty;
}

ShoppingCart AmazonBackend::clear_cart(const std::string& cart_id) {
  std::lock_guard lock(mu_);
  ShoppingCart& cart = carts_[cart_id];
  cart.cartId = cart_id;
  cart.items.clear();
  cart.subtotal = 0.0;
  return cart;
}

ShoppingCart AmazonBackend::add_items(const std::string& cart_id,
                                      const std::string& asin,
                                      std::int32_t quantity) {
  std::lock_guard lock(mu_);
  ShoppingCart& cart = carts_[cart_id];
  cart.cartId = cart_id;
  for (CartItem& item : cart.items) {
    if (item.asin == asin) {
      item.quantity += quantity;
      recompute_subtotal(cart);
      return cart;
    }
  }
  cart.items.push_back({asin, quantity, price_of(asin)});
  recompute_subtotal(cart);
  return cart;
}

ShoppingCart AmazonBackend::remove_items(const std::string& cart_id,
                                         const std::string& asin) {
  std::lock_guard lock(mu_);
  ShoppingCart& cart = carts_[cart_id];
  cart.cartId = cart_id;
  std::erase_if(cart.items, [&](const CartItem& i) { return i.asin == asin; });
  recompute_subtotal(cart);
  return cart;
}

ShoppingCart AmazonBackend::modify_items(const std::string& cart_id,
                                         const std::string& asin,
                                         std::int32_t quantity) {
  std::lock_guard lock(mu_);
  ShoppingCart& cart = carts_[cart_id];
  cart.cartId = cart_id;
  for (CartItem& item : cart.items) {
    if (item.asin == asin) item.quantity = quantity;
  }
  std::erase_if(cart.items, [](const CartItem& i) { return i.quantity <= 0; });
  recompute_subtotal(cart);
  return cart;
}

TransactionDetails AmazonBackend::transaction_details(
    const std::string& transaction_id) const {
  TransactionDetails d;
  d.transactionId = transaction_id;
  d.status = (util::fnv1a(transaction_id) % 4 == 0) ? "pending" : "shipped";
  d.total = 10.0 + static_cast<double>(util::fnv1a(transaction_id) % 50000) / 100.0;
  return d;
}

namespace {

const std::string& pstr(const std::vector<soap::Parameter>& p, std::size_t i) {
  return p.at(i).value.as<std::string>();
}
std::int32_t pi32(const std::vector<soap::Parameter>& p, std::size_t i) {
  return p.at(i).value.as<std::int32_t>();
}

}  // namespace

std::shared_ptr<soap::SoapService> make_amazon_service(
    std::shared_ptr<AmazonBackend> backend) {
  auto service = std::make_shared<soap::SoapService>(*amazon_description());
  for (const std::string& name : search_operations()) {
    service->bind(name, [backend, name](const std::vector<soap::Parameter>& p) {
      return Object::make(backend->search(name, pstr(p, 1), pi32(p, 2)));
    });
  }
  service->bind("GetShoppingCart", [backend](const auto& p) {
    return Object::make(backend->get_cart(pstr(p, 0)));
  });
  service->bind("ClearShoppingCart", [backend](const auto& p) {
    return Object::make(backend->clear_cart(pstr(p, 0)));
  });
  service->bind("AddShoppingCartItems", [backend](const auto& p) {
    return Object::make(backend->add_items(pstr(p, 0), pstr(p, 1), pi32(p, 2)));
  });
  service->bind("RemoveShoppingCartItems", [backend](const auto& p) {
    return Object::make(backend->remove_items(pstr(p, 0), pstr(p, 1)));
  });
  service->bind("ModifyShoppingCartItems", [backend](const auto& p) {
    return Object::make(backend->modify_items(pstr(p, 0), pstr(p, 1), pi32(p, 2)));
  });
  service->bind("GetTransactionDetails", [backend](const auto& p) {
    return Object::make(backend->transaction_details(pstr(p, 0)));
  });
  return service;
}

}  // namespace wsc::services::amazon
